"""Tensor-core unit tests: op contracts, backward rules, grad checking."""

import math
import threading
import tracemalloc
import weakref
import zlib

import numpy as np
import numpy.testing as npt
import pytest

from patchcount import embedder, encoder, heads, model, patchio
from patchcount import ndtensor as nd
from patchcount.ndtensor import (GraphError, MissingGradError, ShapeError, Tensor,
                                 absolute, add, attention, backward, concat, gelu,
                                 grad_check, layer_norm, linear, matmul, mean,
                                 merge_heads, mlp, mul, reshape, slice_axis, smul,
                                 softmax_rows, split_heads, sum_axis, transpose_last)


def t(data, rg=False):
    return Tensor(np.asarray(data, dtype=np.float32), requires_grad=rg)


class TestMatmul:
    def test_identity(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        eye = t(np.eye(2))
        npt.assert_array_equal(matmul(a, eye).data, a.data)

    def test_hand_computed(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        b = t([[5.0, 6.0], [7.0, 8.0]])
        npt.assert_array_equal(matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_zero_annihilates(self):
        z = t(np.zeros((3, 4)))
        b = t(np.random.default_rng(0).normal(size=(4, 5)))
        npt.assert_array_equal(matmul(z, b).data, np.zeros((3, 5)))

    def test_shape_mismatch_names_both(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))

    def test_batch_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(t(np.zeros((2, 3, 4))), t(np.zeros((5, 4, 2))))

    def test_batched_broadcast(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 2, 4)).astype(np.float32)
        b = rng.normal(size=(4, 5)).astype(np.float32)
        npt.assert_allclose(matmul(t(a), t(b)).data, a @ b, rtol=1e-6)

    @pytest.mark.parametrize("op", ["matmul", "linear"])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided"])
    def test_batch_folded_into_rows_equals_per_batch_matmul(self, op, layout):
        # [B, S, K] x [K, N] runs as one [B*S, K] GEMM: the output and the
        # input gradient are the bits of B separate products
        rng = np.random.default_rng(2)
        x = {"contiguous": rng.normal(size=(3, 17, 24)).astype(np.float32),
             "transposed": rng.normal(size=(17, 3, 24)).astype(np.float32).transpose(1, 0, 2),
             "strided": rng.normal(size=(3, 17, 48)).astype(np.float32)[..., ::2]}[layout]
        assert x.flags.c_contiguous == (layout == "contiguous")
        w = rng.normal(size=(24, 8)).astype(np.float32)
        bias = rng.normal(size=8).astype(np.float32)
        g = rng.normal(size=(3, 17, 8)).astype(np.float32)
        xt = Tensor(x, requires_grad=True)
        out = matmul(xt, t(w)) if op == "matmul" else linear(xt, t(w), t(bias))
        out._node._backward(g)
        want = np.stack([np.matmul(x[i], w) for i in range(3)])
        if op == "linear":
            want += bias
        assert np.array_equal(out.data, want)
        assert np.array_equal(xt.grad, np.stack([np.matmul(g[i], w.T) for i in range(3)]))


class TestSoftmax:
    def test_symmetry(self):
        npt.assert_allclose(softmax_rows(t([[0.0, 0.0]])).data, [[0.5, 0.5]])

    def test_no_overflow(self):
        out = softmax_rows(t([[1000.0, 1000.0]])).data
        npt.assert_allclose(out, [[0.5, 0.5]])
        assert np.isfinite(out).all()

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 6)).astype(np.float32)
        a = softmax_rows(t(x)).data
        b = softmax_rows(t(x + 3.7)).data
        npt.assert_allclose(a, b, atol=1e-6)

    def test_rows_stochastic(self):
        rng = np.random.default_rng(3)
        x = rng.normal(scale=5.0, size=(2, 7, 9)).astype(np.float32)
        out = softmax_rows(t(x)).data
        npt.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
        assert ((out >= 0) & (out <= 1)).all()


class TestLayerNorm:
    def test_constant_row_absorbed_by_eps(self):
        out = layer_norm(t([[5.0, 5.0, 5.0, 5.0]]), t(np.ones(4)), t(np.zeros(4)))
        npt.assert_allclose(out.data, np.zeros((1, 4)), atol=1e-6)

    def test_affine_collapse(self):
        x = t(np.random.default_rng(4).normal(size=(3, 5)))
        out = layer_norm(x, t(np.zeros(5)), t(np.full(5, 2.5)))
        npt.assert_allclose(out.data, np.full((3, 5), 2.5))

    def test_two_point_row(self):
        out = layer_norm(t([[1.0, -1.0]]), t(np.ones(2)), t(np.zeros(2)))
        npt.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("budget", [None, 1])
    def test_forward_has_the_bytes_of_the_formula_with_var(self, monkeypatch, dtype, budget):
        # the variance comes from x - mean with var's own steps, so it is x.var's
        rng = np.random.default_rng(9)
        x = (rng.normal(scale=3.0, size=(2, 37, 24)) + rng.normal(scale=50.0, size=(2, 37, 1)))
        x, gamma, beta = (a.astype(dtype) for a in (x, rng.normal(size=24), rng.normal(size=24)))
        if budget is not None:
            monkeypatch.setattr(nd, "_BLOCK_BYTES", budget)
        mu = x.mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-6)
        out = layer_norm(Tensor(x, dtype=dtype), Tensor(gamma, dtype=dtype),
                         Tensor(beta, dtype=dtype))
        assert out.data.dtype == dtype
        assert np.array_equal(out.data, gamma * ((x - mu) * inv_std) + beta)


def _traced_peak(fn):
    """(fn's result, the most bytes it held at once beyond what it started with)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestGelu:
    def test_zero(self):
        assert gelu(t([0.0])).data[0] == 0.0

    def test_identity_asymptote(self):
        npt.assert_allclose(gelu(t([10.0])).data, [10.0], atol=1e-4)

    def test_zero_asymptote(self):
        npt.assert_allclose(gelu(t([-10.0])).data, [0.0], atol=1e-4)

    def test_in_place_matches_plain_formula_bitwise(self):
        rng = np.random.default_rng(6)
        x = np.concatenate([np.linspace(-12.0, 12.0, 2001),
                            rng.normal(scale=3.0, size=999)]).astype(np.float32)
        g = rng.normal(size=x.shape).astype(np.float32)
        c = math.sqrt(2.0 / math.pi)
        th = np.tanh(c * (x + 0.044715 * x * x * x))
        du = c * (1.0 + 3.0 * 0.044715 * x ** 2)
        xt = t(x, rg=True)
        out = gelu(xt)
        out._node._backward(g)
        assert np.array_equal(out.data, 0.5 * x * (1.0 + th))
        assert np.array_equal(xt.grad, g * (0.5 * (1.0 + th) + 0.5 * x * (1.0 - th ** 2) * du))
        assert np.array_equal(x, xt.data)  # the input is not overwritten

    def test_monotone_on_grid(self):
        # gelu dips slightly below x ~ -0.75; nondecreasing to the right of it
        x = np.linspace(-0.7, 6, 241).astype(np.float32)
        y = gelu(t(x)).data
        assert (np.diff(y) >= 0).all()

    @pytest.mark.parametrize("budget", [None, 1])
    def test_no_grad_equals_recorded(self, monkeypatch, budget):
        x = np.random.default_rng(7).normal(scale=3.0, size=(2, 37, 24)).astype(np.float32)
        if budget is not None:
            monkeypatch.setattr(nd, "_BLOCK_BYTES", budget)
        recorded = gelu(t(x, rg=True))
        assert recorded._node._backward is not None
        with nd.no_grad():
            out = gelu(t(x, rg=True))
        assert out._node is None
        assert np.array_equal(out.data, recorded.data)
        assert np.array_equal(gelu(t(x)).data, recorded.data)  # a constant input

    def test_no_grad_holds_output_plus_one_block(self):
        # four blocks of 64 rows of the paper's MLP width
        x = np.random.default_rng(8).normal(size=(4, 64, 3072)).astype(np.float32)
        assert len(list(nd._blocks(x.shape, 4, 1))) == 4
        with nd.no_grad():
            out, peak = _traced_peak(lambda: gelu(t(x)))
        assert peak <= out.data.nbytes + nd._BLOCK_BYTES + 16384, \
            f"peak {peak} B for a {out.data.nbytes} B output"

    def test_recorded_holds_output_plus_one_block(self):
        # as above, with a graph: backward rebuilds tanh(u) from x, so the
        # pass keeps no whole tanh(u)
        x = t(np.random.default_rng(8).normal(size=(4, 64, 3072)).astype(np.float32), rg=True)
        out, peak = _traced_peak(lambda: gelu(x))
        assert out._node is not None
        assert peak <= out.data.nbytes + nd._BLOCK_BYTES + 16384, \
            f"peak {peak} B; a whole tanh(u) is {out.data.nbytes} B"


def test_no_grad_holds_only_on_its_own_thread():
    entered, leave = threading.Event(), threading.Event()

    def hold():
        with nd.no_grad():
            entered.set()
            leave.wait(30)

    other = threading.Thread(target=hold)
    other.start()
    try:
        assert entered.wait(30)
        assert smul(Tensor(2.0, requires_grad=True), 3.0).requires_grad
        with nd.no_grad():
            assert not smul(Tensor(2.0, requires_grad=True), 3.0).requires_grad
    finally:
        leave.set()
        other.join(30)
    assert not other.is_alive()


class TestBackward:
    def test_sum_gives_ones(self):
        x = t([1.0, 2.0, 3.0], rg=True)
        loss = mean(smul(x, 3.0))  # d/dx mean(3x) = 1
        backward(loss)
        npt.assert_allclose(x.grad, np.ones(3))

    def test_quadratic(self):
        x = t([1.0, 2.0, 3.0], rg=True)
        loss = smul(mean(mul(x, x)), 3.0)  # sum(x^2) = 3 * mean
        backward(loss)
        npt.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_non_scalar_rejected(self):
        x = t([1.0, 2.0], rg=True)
        with pytest.raises(GraphError):
            backward(mul(x, x))

    def test_off_graph_rejected(self):
        with pytest.raises(GraphError):
            backward(t([1.0]))

    def test_double_backward_rejected(self):
        x = t([1.0, 2.0], rg=True)
        loss = mean(mul(x, x))
        backward(loss)
        with pytest.raises(GraphError):
            backward(loss)

    def test_accumulates_across_graphs(self):
        x = t([1.0, 2.0], rg=True)
        backward(mean(x))
        backward(mean(x))
        npt.assert_allclose(x.grad, [1.0, 1.0])

    def test_zero_d_leaf_accumulates_across_graphs(self):
        # a 0-d op hands its rule numpy scalars; the leaf's grad stays an array
        x = Tensor(2.0, requires_grad=True)
        backward(smul(x, 3.0))
        backward(smul(x, 3.0))
        assert isinstance(x.grad, np.ndarray) and x.grad == 6.0

    def test_consumed_intermediate_freed_before_nearer_rules(self):
        # x -> a = probe(x) -> b = smul(a) -> loss: once b's rule has run,
        # nothing keeps b's graph node, so it is gone before the probe's
        # rule runs
        alive = []

        def probe(x):
            def rule(g):
                alive.append(ref() is not None)
                nd._accum(x, g)
            return nd._make(x.data.copy(), (x,), rule)

        def build(x):
            b = smul(probe(x), 3.0)
            return mean(b), weakref.ref(b._node)

        x = t([1.0, 2.0], rg=True)
        loss, ref = build(x)
        assert ref() is not None
        backward(loss)
        assert alive == [False]
        npt.assert_allclose(x.grad, [1.5, 1.5])

    def test_finite_outputs(self):
        rng = np.random.default_rng(5)
        x = t(rng.normal(size=(4, 4)), rg=True)
        loss = mean(softmax_rows(matmul(x, transpose_last(x))))
        backward(loss)
        assert np.isfinite(x.grad).all()


class TestBackwardReady:
    """backward(loss, ready=(leaves, done)) hands each watched leaf to done
    once its gradient is final."""

    @staticmethod
    def _logged(events, tag, *xs):
        # the sum of xs, by an op whose rule logs when it runs
        nodes = tuple(x.node for x in xs)

        def rule(g):
            events.append(tag)
            for n in nodes:
                nd._accum(n, g)

        return nd._make(sum(x.data for x in xs) * 1.0, nodes, rule)

    def test_fires_once_per_leaf_with_the_final_gradient(self):
        def graph():
            a, b = t([1.0, -2.0, 0.5], rg=True), t([3.0, 4.0, -1.0], rg=True)
            return a, b, mean(add(mul(a, b), smul(mul(a, a), 3.0)))

        a, b, loss = graph()
        backward(loss)
        final = {"a": a.grad, "b": b.grad}
        a, b, loss = graph()
        leaves, seen = {"a": a, "b": b}, []
        backward(loss, ready=(leaves, lambda k: seen.append((k, leaves[k].grad.copy()))))
        assert sorted(k for k, _ in seen) == ["a", "b"]
        for k, grad in seen:
            assert np.array_equal(grad, final[k])
            assert np.array_equal(leaves[k].grad, final[k])  # nothing added after

    def test_leaf_shared_by_two_ops_is_ready_after_both(self):
        w, events = t([1.0, 2.0], rg=True), []
        loss = mean(add(self._logged(events, "first", w), self._logged(events, "second", w)))
        backward(loss, ready=({"w": w}, lambda k: events.append(("ready", k))))
        assert sorted(events[:2]) == ["first", "second"]
        assert events[2:] == [("ready", "w")]
        npt.assert_allclose(w.grad, [1.0, 1.0])

    def test_leaf_is_ready_before_the_next_rule(self):
        # w feeds `deep`, inside the sum's first operand, and `late`, whose
        # own first operand x is a chain from u that nothing else reaches:
        # the reverse walk runs deep, late, then x's rules, so w is ready
        # between late and x2, not once x's rules have run too
        w, u, events = t([1.0, 2.0], rg=True), t([3.0, -1.0], rg=True), []
        log = self._logged
        x = log(events, "x2", log(events, "x1", u))
        deep = log(events, "d2", log(events, "deep", w))
        loss = mean(add(deep, log(events, "late", x, w)))
        backward(loss, ready=({"w": w, "u": u}, lambda k: events.append(k)))
        assert events == ["d2", "deep", "late", "w", "x2", "x1", "u"]
        npt.assert_allclose(w.grad, [1.0, 1.0])

    @pytest.mark.parametrize("constant", [False, True])
    def test_leaf_without_gradient_raises_before_any_rule(self, constant):
        # u is not on the graph at all, or on it only as a constant
        w, u, events = t([1.0, 2.0], rg=True), t([3.0, 4.0], rg=not constant), []
        out = self._logged(events, "rule", w)
        loss = mean(mul(out, u) if constant else out)
        with pytest.raises(MissingGradError, match="'u'"):
            backward(loss, ready=({"w": w, "u": u}, lambda k: events.append(k)))
        assert events == [] and w.grad is None
        backward(loss)  # the graph was not consumed
        assert events == ["rule"]


def _weighted_sum(out, seed=0):
    w = Tensor(np.random.default_rng(seed).normal(size=out.shape))
    return mean(mul(out, w))


PRIMITIVES = [
    ("add_broadcast", (4, 5), lambda p: add(p, Tensor(np.arange(5.0)))),
    ("mul", (4, 5), lambda p: mul(p, Tensor(np.linspace(-1, 1, 20).reshape(4, 5)))),
    ("smul", (4, 5), lambda p: smul(p, -2.5)),
    ("matmul_left", (4, 5), lambda p: matmul(p, Tensor(np.random.default_rng(1).normal(size=(5, 3))))),
    ("matmul_right", (4, 5), lambda p: matmul(Tensor(np.random.default_rng(2).normal(size=(3, 4))), p)),
    ("transpose", (4, 5), lambda p: transpose_last(p)),
    ("reshape", (4, 5), lambda p: reshape(p, (2, 10))),
    ("mean_axis", (4, 5), lambda p: mean(p, axis=1)),
    ("sum_axis", (4, 5), lambda p: sum_axis(p, 0)),
    ("concat", (4, 5), lambda p: concat([p, Tensor(np.ones((2, 5)))], axis=0)),
    ("slice", (4, 5), lambda p: slice_axis(p, 1, 1, 4)),
    ("softmax", (4, 5), lambda p: softmax_rows(p)),
    ("gelu", (4, 5), lambda p: gelu(p)),
    ("layer_norm", (4, 5), lambda p: layer_norm(
        p, Tensor(np.linspace(0.5, 1.5, 5)), Tensor(np.linspace(-1, 1, 5)))),
    ("abs", (4, 5), lambda p: absolute(p)),
    ("split_heads", (2, 3, 4), lambda p: split_heads(p, 2)),
    ("merge_heads", (2, 2, 3, 2), lambda p: merge_heads(p)),
    ("linear_x", (2, 4, 5), lambda p: linear(
        p, Tensor(np.random.default_rng(5).normal(size=(5, 3))), Tensor(np.arange(3.0)))),
    ("linear_w", (5, 3), lambda p: linear(
        Tensor(np.random.default_rng(6).normal(size=(2, 4, 5))), p, Tensor(np.arange(3.0)))),
    ("linear_b", (3,), lambda p: linear(
        Tensor(np.random.default_rng(7).normal(size=(2, 4, 5))),
        Tensor(np.random.default_rng(8).normal(size=(5, 3))), p)),
]

_MLP_SHAPES = {"x": (2, 4, 5), "w1": (5, 6), "b1": (6,), "w2": (6, 3), "b2": (3,)}


def _of(fn, shapes, operand, rg=False):
    """``fn`` of the operands named in ``shapes`` as a function of one of
    them, the others fixed; with ``rg`` they take gradients too, so every
    op of the chain is recorded."""
    def op(p):
        rng = np.random.default_rng(15)
        args = {n: Tensor(rng.normal(size=s), requires_grad=rg) for n, s in shapes.items()}
        return fn(*{**args, operand: p}.values())

    return op


def _kept_layer_norm(x, gamma, beta):
    """layer_norm whose recorded output's graph place cannot rebuild it, so
    every rule that reads the output keeps the array."""
    out = layer_norm(x, gamma, beta)
    if out._node is not None:
        out._node.rebuild = None
    return out


def _ln_matmuls(x, gamma, beta, w_q, w_k, w_v, w_r, norm=layer_norm):
    """One layer_norm output read by four products: three as the left
    operand, as Q, K and V read it, and one as the right operand; their
    outputs flattened per batch row and concatenated. ``norm`` is
    layer_norm or _kept_layer_norm."""
    z = norm(x, gamma, beta)
    outs = [matmul(z, w) for w in (w_q, w_k, w_v)] + [matmul(w_r, z)]
    return concat([reshape(o, (o.shape[0], -1)) for o in outs], 1)


def _ln_mlp(x, gamma, beta, w1, b1, w2, b2, norm=layer_norm):
    return mlp(norm(x, gamma, beta), w1, b1, w2, b2)


def _attention_chain(q, k, v, n_heads, scale, w):
    """attention(q, k, v, n_heads, scale, w)[0] as a chain of primitives:
    split into heads, softmax(scale * Q K^T) V, merged and projected."""
    q, k, v = (split_heads(x, n_heads) for x in (q, k, v))
    p = softmax_rows(smul(matmul(q, transpose_last(k)), scale))
    return matmul(merge_heads(matmul(p, v)), w)


def _ln_attention(x, gamma, beta, w_q, w_k, w_v, w_o, n_heads=2, norm=layer_norm):
    """encoder.msa's chain: one layer_norm output projected to Q, K and V,
    then attention with w_o. The scale is small enough that float32
    central differences of step 1e-2 stay within the checker's bound on
    unit-normal weights."""
    z = norm(x, gamma, beta)
    q, k, v = (matmul(z, w) for w in (w_q, w_k, w_v))
    return attention(q, k, v, n_heads, 0.1, w_o)[0]


def _ln_attention_chain(x, gamma, beta, w_q, w_k, w_v, w_o, n_heads=2):
    """_ln_attention with attention as _attention_chain."""
    z = layer_norm(x, gamma, beta)
    q, k, v = (matmul(z, w) for w in (w_q, w_k, w_v))
    return _attention_chain(q, k, v, n_heads, 0.1, w_o)


def _projected_attention(q, k, v, w):
    return attention(q, k, v, 2, 0.7, w)[0]


_PROJECTED_SHAPES = {"q": (2, 3, 4), "k": (2, 5, 4), "v": (2, 5, 4), "w": (4, 5)}
_LN_MATMUL_SHAPES = {"x": (2, 4, 5), "gamma": (5,), "beta": (5,), "w_q": (5, 3),
                     "w_k": (5, 3), "w_v": (5, 2), "w_r": (3, 4)}
_LN_ATTENTION_SHAPES = {"x": (2, 4, 6), "gamma": (6,), "beta": (6,), "w_q": (6, 6),
                        "w_k": (6, 6), "w_v": (6, 6), "w_o": (6, 5)}
_LN_MLP_SHAPES = {"x": (2, 4, 5), "gamma": (5,), "beta": (5,),
                  **{n: s for n, s in _MLP_SHAPES.items() if n != "x"}}

PRIMITIVES += [("mlp_" + n, s, _of(mlp, _MLP_SHAPES, n)) for n, s in _MLP_SHAPES.items()]
PRIMITIVES += [("layer_norm_matmul_" + n, s, _of(_ln_matmuls, _LN_MATMUL_SHAPES, n, True))
               for n, s in _LN_MATMUL_SHAPES.items()]
PRIMITIVES += [("layer_norm_mlp_" + n, s, _of(_ln_mlp, _LN_MLP_SHAPES, n, True))
               for n, s in _LN_MLP_SHAPES.items()]
PRIMITIVES += [("layer_norm_attention_" + n, s, _of(_ln_attention, _LN_ATTENTION_SHAPES, n, True))
               for n, s in _LN_ATTENTION_SHAPES.items()]
# Q, K and V each alone and each with every operand recorded, and w
# alone; either way the rule rebuilds the heads for w's gradient where
# they span blocks
PRIMITIVES += [("attention_" + n, s, _of(_projected_attention, _PROJECTED_SHAPES, n))
               for n, s in _PROJECTED_SHAPES.items() if n != "w"]
PRIMITIVES += [("attention_projected_" + n, s, _of(_projected_attention, _PROJECTED_SHAPES, n,
                                                    n != "w"))
               for n, s in _PROJECTED_SHAPES.items()]


def _primitive_params(name, shape):
    # crc32, not hash(): str hashes change with PYTHONHASHSEED, so the data would too
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    data = rng.normal(size=shape).astype(np.float32)
    if name == "abs":
        data = data + np.sign(data)  # keep away from the kink at 0
    return Tensor(data, requires_grad=True)


# The primitives that run block by block are checked once more with a
# budget of one byte, which puts every row or [Sq, Sk] matrix in its own block.
GRAD_CASES = [p + (None,) for p in PRIMITIVES] + [
    (name + "_blocked", shape, op, 1) for name, shape, op in PRIMITIVES
    if name.startswith(("gelu", "layer_norm", "attention", "mlp"))]


class TestGradCheck:
    @pytest.mark.parametrize("name,shape,op,budget", GRAD_CASES,
                             ids=[c[0] for c in GRAD_CASES])
    def test_primitive_gradients(self, monkeypatch, name, shape, op, budget):
        if budget is not None:
            monkeypatch.setattr(nd, "_BLOCK_BYTES", budget)
        params = _primitive_params(name, shape)
        err = grad_check(lambda p: _weighted_sum(op(p)), params,
                         h=1e-4, high_precision=True)
        assert err < 1e-4, f"{name}: relative error {err}"

    @pytest.mark.parametrize("name,shape,op,budget", GRAD_CASES,
                             ids=[c[0] for c in GRAD_CASES])
    def test_primitive_gradients_float32(self, monkeypatch, name, shape, op, budget):
        # float32 evaluations: a wider step, so rounding stays well below the bound
        if budget is not None:
            monkeypatch.setattr(nd, "_BLOCK_BYTES", budget)
        params = _primitive_params(name, shape)
        err = grad_check(lambda p: _weighted_sum(op(p)), params, h=1e-2)
        assert err < 1e-4, f"{name}: relative error {err}"

    def test_sum_of_squares(self):
        params = Tensor(np.arange(1.0, 21.0, dtype=np.float32), requires_grad=True)
        err = grad_check(lambda p: mean(mul(p, p)), params, high_precision=True)
        assert err < 1e-4

    def test_constant_function(self):
        params = Tensor(np.ones(5, dtype=np.float32), requires_grad=True)
        err = grad_check(lambda p: add(mean(smul(p, 0.0)), Tensor(1.0)), params)
        assert err < 1e-6

    def test_nondeterministic_rejected(self):
        params = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        state = {"n": 0}

        def f(p):
            state["n"] += 1
            return mean(smul(p, float(state["n"])))

        with pytest.raises(GraphError, match="deterministic"):
            grad_check(f, params)

    def test_bad_h(self):
        params = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        for h in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and > 0"):
                grad_check(lambda p: mean(p), params, h=h)

    @pytest.mark.parametrize("sample", [[], np.array([], dtype=np.int64)])
    def test_empty_sample_rejected(self, sample):
        params = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError, match="no coordinate"):
            grad_check(lambda p: mean(p), params, sample=sample)

    def test_nan_gradient_gives_nan(self):
        # the value is p's sum, but the rule hands coordinate 0 a NaN: the
        # NaN error comes first and must outlast the finite ones after it
        params = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        bad = np.array([np.nan, 1.0, 1.0], dtype=np.float32)

        def f(p):
            return nd._make(np.asarray(p.data.sum()), (p,),
                            lambda g: nd._accum(p, bad * g, owned=True))

        assert math.isnan(grad_check(f, params))


# mlp's own shapes once more: h of [1, 64, 96] is one block at the default
# budget and four at 16 rows
_MLP_WIDE = {"x": (1, 64, 24), "w1": (24, 96), "b1": (96,), "w2": (96, 24), "b2": (24,)}
READ_ONLY_CASES = [(name, shape, op, budget) for name, shape, op in PRIMITIVES
                   for budget in (None, 1)] + [
    ("mlp_wide_" + n, s, _of(mlp, _MLP_WIDE, n, True), budget)
    for n, s in _MLP_WIDE.items() for budget in (None, 16 * 96 * 4)]


class TestRulesReadTheirGradient:
    """No backward rule writes the gradient it is handed, during its run or
    after it through an array it passed on: gelu's rule multiplies a copy,
    and mlp's output rule reads its g after handing on h's gradient."""

    @pytest.mark.parametrize("name,shape,op,budget", READ_ONLY_CASES,
                             ids=[f"{c[0]}-{c[3]}" for c in READ_ONLY_CASES])
    def test_gradient_handed_to_a_rule_is_unchanged(self, monkeypatch, name, shape, op, budget):
        if budget is not None:
            monkeypatch.setattr(nd, "_BLOCK_BYTES", budget)
        handed = []  # (rule's node, rule, g, a copy of g before the rule ran)
        init = nd._Node.__init__

        def watched(node, data, parents, rule):
            def run(g):
                handed.append((node, rule, g, g.copy()))
                rule(g)
                assert g.tobytes() == handed[-1][3].tobytes(), f"{rule.__qualname__} wrote g"

            init(node, data, parents, run)

        monkeypatch.setattr(nd._Node, "__init__", watched)
        out = op(_primitive_params(name, shape))
        backward(_weighted_sum(out))
        assert any(node is out._node for node, *_ in handed)
        for _, rule, g, before in handed:
            assert g.tobytes() == before.tobytes(), f"{rule.__qualname__}'s g moved later"


class TestBlocks:
    @pytest.mark.parametrize("shape,core,budget", [
        ((2, 3, 37, 37), 2, 2 * 37 * 37 * 4), ((2, 37, 24), 1, 5 * 24 * 4),
        ((6, 5, 7), 1, 1), ((4, 5), 1, 3 * 5 * 4), ((5,), 1, 1), ((), 1, 1)])
    def test_cover_every_element_once_in_order(self, monkeypatch, shape, core, budget):
        monkeypatch.setattr(nd, "_BLOCK_BYTES", budget)
        seen = np.zeros(shape, dtype=int)
        order = np.arange(seen.size).reshape(shape)
        firsts = []
        for i in nd._blocks(shape, 4, core):
            seen[i] += 1
            firsts.append(order[i].reshape(-1)[0])
        assert (seen == 1).all()
        assert firsts == sorted(firsts)

    def test_toy_model_arrays_are_one_block(self):
        # toy ops run as one numpy call per pass: attention [8, 4, 65, 65],
        # MLP hidden [8, 65, 256], LN [8, 65, 64]
        for shape, core in (((8, 4, 65, 65), 2), ((8, 65, 256), 1), ((8, 65, 64), 1)):
            assert list(nd._blocks(shape, 4, core)) == [(...,)]

    def test_paper_scale_blocks_fit_the_budget(self):
        # a [576, 576] matrix (1.3 MB) is over the budget, so each of the
        # 6 x 12 (tile, head) matrices is a block; the MLP activation goes
        # in blocks of 64 rows
        assert len(list(nd._blocks((6, 12, 576, 576), 4, 2))) == 72
        blocks = list(nd._blocks((6, 576, 3072), 4, 1))
        assert len(blocks) == 6 * 9 and blocks[1] == (0, slice(64, 128))


def _attention_inputs(rng, b=2, h=3, s=37, dh=8):
    """[B, S, H*dh] Q, K and V, and an [H*dh, H*dh] output weight."""
    return [rng.normal(scale=2.0, size=(b, s, h * dh)).astype(np.float32)
            for _ in range(3)] + [rng.normal(scale=0.3, size=(h * dh, h * dh)).astype(np.float32)]


def _outputs_and_grads(op, arrays, seed=0):
    ts = [Tensor(a.copy(), requires_grad=True, dtype=a.dtype) for a in arrays]
    out = op(*ts)
    backward(_weighted_sum(out, seed))
    return [out.data] + [x.grad for x in ts]


# op, inputs, the shape of the array it blocks and the axes a block never
# splits, a budget that splits that array into uneven blocks
BLOCKED = {
    "attention": (lambda q, k, v, w: attention(q, k, v, 3, 1.0 / np.sqrt(24.0), w)[0],
                  _attention_inputs, (2, 3, 37, 37), 2, 2 * 37 * 37 * 4),
    "gelu": (gelu, lambda rng: [rng.normal(scale=3.0, size=(2, 37, 24)).astype(np.float32)],
             (2, 37, 24), 1, 5 * 24 * 4),
    "layer_norm": (layer_norm, lambda rng: [
        rng.normal(scale=3.0, size=(2, 37, 24)).astype(np.float32),
        rng.normal(size=24).astype(np.float32), rng.normal(size=24).astype(np.float32)],
        (2, 37, 24), 1, 5 * 24 * 4),
}


class TestBlockedBitExact:
    """Blocked ops give the whole-array op's bits: each pass is elementwise
    or reduces within one row or [Sq, Sk] matrix, and BLAS is still called
    once per matrix."""

    @pytest.mark.parametrize("name", sorted(BLOCKED))
    def test_forward_and_every_gradient(self, monkeypatch, name):
        op, inputs, shape, core, budget = BLOCKED[name]
        arrays = inputs(np.random.default_rng(20))
        whole = _outputs_and_grads(op, arrays)
        assert list(nd._blocks(shape, 4, core)) == [(...,)]
        monkeypatch.setattr(nd, "_BLOCK_BYTES", budget)
        assert len(list(nd._blocks(shape, 4, core))) > 2
        blocked = _outputs_and_grads(op, arrays)
        assert len(blocked) == len(whole)
        for a, b in zip(whole, blocked):
            assert a.shape == b.shape and np.array_equal(a, b)

    # whole, one matrix per block, two (so the last block is short), and one
    # byte, which also gives each matrix a block of its own
    @pytest.mark.parametrize("budget", [None, 37 * 37 * 4, 2 * 37 * 37 * 4, 1])
    def test_fused_attention_equals_probs_then_matmul(self, monkeypatch, budget):
        scale = 1.0 / np.sqrt(24.0)  # a numpy float64, as ModelConfig.attn_scale is
        arrays = _attention_inputs(np.random.default_rng(21))
        expected = _outputs_and_grads(
            lambda q, k, v, w: _attention_chain(q, k, v, 3, scale, w), arrays)
        if budget is not None:
            monkeypatch.setattr(nd, "_BLOCK_BYTES", budget)
        got = _outputs_and_grads(lambda q, k, v, w: attention(q, k, v, 3, scale, w)[0], arrays)
        for a, b in zip(expected, got, strict=True):
            assert a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)
        with nd.no_grad():
            out, probs = attention(*(Tensor(a, requires_grad=True) for a in arrays[:3]), 3,
                                   scale, Tensor(arrays[3], requires_grad=True))
        assert out._node is None and probs is None
        assert out.data.shape == expected[0].shape and np.array_equal(out.data, expected[0])

    # the paper's sequence lengths, GAP (576) and Token (577), in blocks of
    # one matrix or row, and of two matrices, so the last block is short;
    # the reference keeps what the op rebuilds: the unfused attention chain
    # keeps the probabilities, and gelu at a budget of 1 GiB runs whole
    @pytest.mark.parametrize("s", [576, 577])
    @pytest.mark.parametrize("budget", [1, 2 * 577 * 577 * 4])
    @pytest.mark.parametrize("name", ["attention", "gelu"])
    def test_rebuilt_in_backward_gives_the_kept_bits(self, monkeypatch, name, s, budget):
        rng = np.random.default_rng(s)
        if name == "attention":
            scale = 1.0 / np.sqrt(24.0)
            arrays, shape, core = _attention_inputs(rng, b=1, h=3, s=s), (1, 3, s, s), 2
            ops = [lambda q, k, v, w: attention(q, k, v, 3, scale, w)[0],
                   lambda q, k, v, w: attention(q, k, v, 3, scale, w, keep=True)[0]]

            def reference(q, k, v, w):
                return _attention_chain(q, k, v, 3, scale, w)
        else:
            arrays, shape, core = [rng.normal(scale=3.0, size=(1, s, 3072)).astype(np.float32)], \
                (1, s, 3072), 1
            ops, reference = [gelu], gelu
        monkeypatch.setattr(nd, "_BLOCK_BYTES", 1 << 30)
        whole = _outputs_and_grads(reference, arrays)
        monkeypatch.setattr(nd, "_BLOCK_BYTES", budget)
        assert len(list(nd._blocks(shape, 4, core))) > 1
        for op in ops:
            for a, b in zip(whole, _outputs_and_grads(op, arrays), strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_probabilities_gradient_takes_their_dtype(self):
        # float32 probabilities meet a float64 value: their gradient is
        # rounded to float32, as the unfused chain's probabilities node does
        q, k, v, w = _attention_inputs(np.random.default_rng(24))
        arrays = [q, k, v.astype(np.float64), w]
        expected = _outputs_and_grads(lambda *a: _attention_chain(*a[:3], 3, 0.5, a[3]), arrays)
        got = _outputs_and_grads(lambda *a: attention(*a[:3], 3, 0.5, a[3])[0], arrays)
        for a, b in zip(expected, got, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_kept_probabilities_equal_the_recorded_ones(self):
        arrays = _attention_inputs(np.random.default_rng(25))

        def run():
            q, k, v, w = (Tensor(a, requires_grad=True) for a in arrays)
            return attention(q, k, v, 3, 0.5, w, keep=True)

        recorded = run()
        with nd.no_grad():
            kept = run()
        assert recorded[0]._node is not None and kept[0]._node is None
        assert np.array_equal(kept[0].data, recorded[0].data)
        q, k = (split_heads(Tensor(a), 3) for a in arrays[:2])
        chain = softmax_rows(smul(matmul(q, transpose_last(k)), 0.5))
        assert np.array_equal(kept[1], recorded[1]) and np.array_equal(kept[1], chain.data)

    def test_attention_records_one_node_under_grad(self):
        q, k, v, w = (Tensor(a, requires_grad=True)
                      for a in _attention_inputs(np.random.default_rng(22)))
        out, probs = attention(q, k, v, 3, 0.5, w)
        assert out._node._parents == (q, k, v, w) and probs is None

    def test_attention_value_shape_mismatch(self):
        q, k, v, w = (Tensor(a) for a in _attention_inputs(np.random.default_rng(23)))
        with nd.no_grad(), pytest.raises(ShapeError, match="value"):
            attention(q, k, Tensor(v.data[:, :5]), 3, 0.5, w)


def _linear_gelu_linear(x, w1, b1, w2, b2):
    return linear(gelu(linear(x, w1, b1)), w2, b2)


class TestMlp:
    """mlp gives the bits of linear -> gelu -> linear, forward and backward,
    with h in one block or in many."""

    # (x, hidden): a small MLP, and a paper-length one (S = 577, 4D = 3072)
    # whose hidden spans ten blocks at the default budget; a budget of one
    # byte gives every row a block of its own
    @pytest.mark.parametrize("x_shape,hidden", [((2, 37, 24), 96), ((1, 577, 64), 3072)])
    @pytest.mark.parametrize("budget", [None, 1])
    def test_equals_linear_gelu_linear(self, monkeypatch, x_shape, hidden, budget):
        d = x_shape[-1]
        rng = np.random.default_rng(26)
        arrays = [rng.normal(scale=2.0, size=x_shape).astype(np.float32)] + [
            rng.normal(scale=0.3, size=s).astype(np.float32)
            for s in ((d, hidden), (hidden,), (hidden, d), (d,))]
        if budget is not None:
            monkeypatch.setattr(nd, "_BLOCK_BYTES", budget)
        expected = _outputs_and_grads(_linear_gelu_linear, arrays)
        got = _outputs_and_grads(mlp, arrays)
        for a, b in zip(expected, got, strict=True):
            assert a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)
        with nd.no_grad():
            out = mlp(*(Tensor(a, requires_grad=True) for a in arrays))
        assert out._node is None and np.array_equal(out.data, expected[0])

    @pytest.mark.parametrize("wide", range(5))
    @pytest.mark.parametrize("budget", [None, 1])
    def test_one_float64_operand_gives_the_chain_dtypes(self, monkeypatch, wide, budget):
        rng = np.random.default_rng(27)
        arrays = [rng.normal(size=s).astype(np.float32) for s in _MLP_SHAPES.values()]
        arrays[wide] = arrays[wide].astype(np.float64)
        if budget is not None:
            monkeypatch.setattr(nd, "_BLOCK_BYTES", budget)
        expected = _outputs_and_grads(_linear_gelu_linear, arrays)
        got = _outputs_and_grads(mlp, arrays)
        for a, b in zip(expected, got, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_records_gelu_output_and_output_nodes(self):
        x, w1, b1, w2, b2 = args = [t(np.ones(s), rg=True) for s in _MLP_SHAPES.values()]
        out = mlp(*args)
        hidden, *rest = out._node._parents
        assert rest == [w2, b2] and hidden._parents == (x, w1, b1)
        assert hidden.shape == (2, 4, 6) and hidden.dtype == np.float32
        with nd.no_grad():
            assert mlp(*args)._node is None

    def test_backward_computes_each_tanh_once(self, monkeypatch):
        # h spans four blocks, or at the default budget one: the output rule
        # computes each block's tanh(u) once, for GELU(h) and for h's
        # gradient, and the hidden rule receives h's gradient, with the
        # chain's bits.
        real, shapes = nd._gelu_tanh, []
        monkeypatch.setattr(nd, "_gelu_tanh", lambda x, dtype: shapes.append(x.shape)
                            or real(x, dtype))
        linear_backward, received = nd._linear_backward, []

        def spy(x, w, b, x_, w_, g):
            received.append((w, g.copy()))
            linear_backward(x, w, b, x_, w_, g)

        monkeypatch.setattr(nd, "_linear_backward", spy)
        rng = np.random.default_rng(36)
        arrays = [rng.normal(size=s).astype(np.float32)
                  for s in ((1, 64, 24), (24, 96), (96,), (96, 24), (24,))]
        for budget, forward, blocks in [(16 * 96 * 4, [(16, 96)] * 4, [(16, 96)] * 4),
                                        (nd._BLOCK_BYTES, [(1, 64, 96)], [(1, 64, 96)])]:
            monkeypatch.setattr(nd, "_BLOCK_BYTES", budget)
            args = [t(a, rg=True) for a in arrays]
            shapes.clear()
            loss = mean(mlp(*args))
            assert shapes == forward
            shapes.clear()
            received.clear()
            backward(loss)
            assert shapes == blocks
            [(w, dh)] = received
            assert w is args[1]
            chain = [t(a, rg=True) for a in arrays]
            received.clear()
            backward(mean(_linear_gelu_linear(*chain)))
            [expected] = [g for w, g in received if w is chain[1]]
            assert dh.dtype == expected.dtype and np.array_equal(dh, expected)

    def test_backward_holds_three_hidden_arrays_and_one_blocks_scratch(self, monkeypatch):
        # h spans four blocks: the output rule holds h's gradient, the
        # rebuilt h and GELU(h), one block's tanh(u), 1 + tanh(u) and two
        # gelu' temporaries, and the output's gradient; the weights'
        # gradients come after the block scratch is gone
        monkeypatch.setattr(nd, "_BLOCK_BYTES", 16 * 384 * 4)
        rng = np.random.default_rng(37)
        args = [t(rng.normal(scale=0.3, size=s), rg=True)
                for s in ((1, 64, 96), (96, 384), (384,), (384, 96), (96,))]
        assert len(list(nd._blocks((1, 64, 384), 4, 1))) == 4
        tracemalloc.start()  # before the forward, so the graph's frees count
        try:
            loss = mean(mlp(*args))
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        h_bytes, out_bytes = 64 * 384 * 4, 64 * 96 * 4
        assert peak <= 3 * h_bytes + 4 * nd._BLOCK_BYTES + out_bytes + 16384, \
            f"backward peaked {peak} B above the graph; h is {h_bytes} B"

    def test_recorded_holds_hidden_and_output_but_no_gelu_output(self):
        # a hidden of four blocks of 64 rows of the paper's MLP width: the
        # pass holds h and its output (x is the caller's), and backward
        # rebuilds GELU(h), which a kept copy would add in full
        rng = np.random.default_rng(28)
        x, w1, b1, w2, b2 = (t(rng.normal(scale=0.1, size=s), rg=True) for s in
                             ((4, 64, 96), (96, 3072), (3072,), (3072, 96), (96,)))
        hidden = 4 * 64 * 3072 * 4
        assert len(list(nd._blocks((4, 64, 3072), 4, 1))) == 4
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = mlp(x, w1, b1, w2, b2)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert out._node is not None
        assert held <= hidden + out.data.nbytes + 16384, \
            f"held {held} B; h and GELU(h) are {hidden} B each"


class TestLayerNormRebuilt:
    """A layer_norm output is rebuilt from x-hat in the rules that read it,
    at every size; the outputs and every gradient keep the bits of the
    chain that keeps it (_kept_layer_norm, or linear, which keeps its x)."""

    # (x, hidden): small, and paper-sized (S = 577, D = 768, 4D = 3072),
    # whose layer_norm output is one block and three at the default budget;
    # a budget of one byte gives every row a block of its own
    @pytest.mark.parametrize("x_shape,hidden", [((2, 37, 24), 96), ((1, 577, 768), 3072)])
    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("chain", ["matmul", "mlp"])
    def test_equals_the_kept_chain(self, monkeypatch, chain, x_shape, hidden, budget):
        _, s, d = x_shape
        rng = np.random.default_rng(29)
        shapes = [x_shape, (d,), (d,)] + ([(d, hidden), (d, hidden), (d, 8), (5, s)]
                                          if chain == "matmul" else
                                          [(d, hidden), (hidden,), (hidden, d), (d,)])
        arrays = [rng.normal(scale=0.3 if i > 2 else 2.0, size=shape).astype(np.float32)
                  for i, shape in enumerate(shapes)]
        if chain == "matmul":
            def op(*args):
                return _ln_matmuls(*args, norm=_kept_layer_norm)
        else:
            def op(x, gamma, beta, *weights):  # the composition mlp replaced
                return _linear_gelu_linear(layer_norm(x, gamma, beta), *weights)

        expected = _outputs_and_grads(op, arrays)
        if budget is not None:
            monkeypatch.setattr(nd, "_BLOCK_BYTES", budget)
        assert layer_norm(*(t(a, rg=True) for a in arrays[:3]))._node.rebuild is not None
        got = _outputs_and_grads(_ln_matmuls if chain == "matmul" else _ln_mlp, arrays)
        for a, b in zip(expected, got, strict=True):
            assert a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("wide", range(3))
    def test_one_float64_operand_gives_the_kept_dtypes(self, monkeypatch, wide):
        rng = np.random.default_rng(30)
        arrays = [rng.normal(size=s).astype(np.float32) for s in _LN_MLP_SHAPES.values()]
        arrays[wide] = arrays[wide].astype(np.float64)
        expected = _outputs_and_grads(lambda *a: _ln_mlp(*a, norm=_kept_layer_norm), arrays)
        monkeypatch.setattr(nd, "_BLOCK_BYTES", 1)
        got = _outputs_and_grads(_ln_mlp, arrays)
        for a, b in zip(expected, got, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_recorded_mlp_block_holds_xhat_and_output_only(self, monkeypatch):
        # a layer_norm output of four blocks and an h of sixteen: the block
        # keeps x-hat, each row's 1/std and its output, not the layer_norm
        # output or h, which a kept copy would add in full
        monkeypatch.setattr(nd, "_BLOCK_BYTES", 16 * 96 * 4)
        rng = np.random.default_rng(31)
        params = {"layer0." + n: Tensor(rng.normal(scale=0.1, size=s).astype(np.float32),
                                        requires_grad=True)
                  for n, s in (("ln2.gamma", (96,)), ("ln2.beta", (96,)),
                               ("mlp.w1", (96, 384)), ("mlp.b1", (384,)),
                               ("mlp.w2", (384, 96)), ("mlp.b2", (96,)))}
        z = t(rng.normal(size=(1, 64, 96)))
        assert len(list(nd._blocks(z.shape, 4, 1))) == 4
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = encoder.mlp_block(z, params, 0)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert out._node is not None
        rows = 64 * 96 * 4  # x-hat, the layer_norm output and the block output each
        assert held <= 2 * rows + 64 * 4 + 8192, \
            f"held {held} B; x-hat and the output are {2 * rows} B, h {4 * rows} B"


class TestProjectionsRebuilt:
    """Q, K and V projected from a layer_norm output are rebuilt from x-hat
    in attention's rule, at every size; the outputs and every gradient keep
    the bits of the chain that keeps them (_kept_layer_norm)."""

    # D = 768 and 12 heads, as the paper's; at the default budget the
    # projections of S = 577 span three blocks and those of S = 37 are one,
    # and a budget of one byte gives every row a block of its own
    @pytest.mark.parametrize("x_shape", [(2, 37, 768), (1, 577, 768)])
    @pytest.mark.parametrize("budget", [None, 1])
    def test_equals_the_kept_chain(self, monkeypatch, x_shape, budget):
        d = x_shape[-1]
        rng = np.random.default_rng(32)
        arrays = [rng.normal(scale=0.3 if i > 2 else 2.0, size=shape).astype(np.float32)
                  for i, shape in enumerate([x_shape, (d,), (d,)] + [(d, d)] * 4)]

        def rebuilds(norm):
            z = norm(*(t(a, rg=True) for a in arrays[:3]))
            return matmul(z, t(arrays[3])).node.rebuild is not None

        assert not rebuilds(_kept_layer_norm)
        expected = _outputs_and_grads(
            lambda *a: _ln_attention(*a, n_heads=12, norm=_kept_layer_norm), arrays)
        if budget is not None:
            monkeypatch.setattr(nd, "_BLOCK_BYTES", budget)
        assert rebuilds(layer_norm)
        got = _outputs_and_grads(lambda *a: _ln_attention(*a, n_heads=12), arrays)
        for a, b in zip(expected, got, strict=True):
            assert a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("wide", range(7))
    def test_one_float64_operand_gives_the_kept_dtypes(self, monkeypatch, wide):
        rng = np.random.default_rng(33)
        arrays = [rng.normal(size=s).astype(np.float32) for s in _LN_ATTENTION_SHAPES.values()]
        arrays[wide] = arrays[wide].astype(np.float64)
        expected = _outputs_and_grads(lambda *a: _ln_attention(*a, norm=_kept_layer_norm),
                                      arrays)
        monkeypatch.setattr(nd, "_BLOCK_BYTES", 1)
        got = _outputs_and_grads(_ln_attention, arrays)
        for a, b in zip(expected, got, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_only_a_leaf_right_operand_rebuilds(self):
        rng = np.random.default_rng(34)
        z = layer_norm(*(t(rng.normal(size=s), rg=True) for s in ((2, 4, 6), (6,), (6,))))
        w = t(rng.normal(size=(6, 6)), rg=True)
        assert matmul(z, w)._node.rebuild is not None
        assert matmul(z, smul(w, 2.0))._node.rebuild is None  # an op output, not a leaf
        assert matmul(smul(z, 2.0), w)._node.rebuild is None  # a left operand kept

    @staticmethod
    def _held_by_msa(monkeypatch, budget):
        """(bytes a recorded encoder.msa holds for a [1, 64, 96] input of 4
        heads, one row-major [64, 96] array's bytes)."""
        monkeypatch.setattr(nd, "_BLOCK_BYTES", budget)
        rng = np.random.default_rng(35)
        params = {"layer0." + n: Tensor(rng.normal(scale=0.1, size=s).astype(np.float32),
                                        requires_grad=True)
                  for n, s in (("ln1.gamma", (96,)), ("ln1.beta", (96,)), ("w_q", (96, 96)),
                               ("w_k", (96, 96)), ("w_v", (96, 96)), ("w_o", (96, 96)))}
        z = t(rng.normal(size=(1, 64, 96)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out, _ = encoder.msa(layer_norm(z, params["layer0.ln1.gamma"],
                                            params["layer0.ln1.beta"]),
                                 params, 0, 4, 0.5)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert out._node is not None
        return held, 64 * 96 * 4

    def test_recorded_multi_block_msa_holds_no_projection(self, monkeypatch):
        # Q, K, V and the merged heads span four blocks each: the graph
        # keeps x-hat, each row's 1/std and the probabilities' row max and
        # sum, and no Q, K, V or merged heads, which would add a row array
        # each; the test holds the output
        held, rows = self._held_by_msa(monkeypatch, 16 * 96 * 4)
        assert held <= 2 * rows + 64 * 4 + 2 * 4 * 64 * 4 + 16384, \
            f"held {held} B; x-hat and the output are {2 * rows} B"

    def test_recorded_one_block_msa_holds_no_projection(self, monkeypatch):
        # as above, with every array one block: what the graph keeps does
        # not depend on the arrays' sizes
        held, rows = self._held_by_msa(monkeypatch, nd._BLOCK_BYTES)
        assert len(list(nd._blocks((1, 4, 64, 64), 4, 2))) == 1
        assert held <= 2 * rows + 64 * 4 + 2 * 4 * 64 * 4 + 16384, \
            f"held {held} B; x-hat and the output are {2 * rows} B"


class TestLayerNormRebuiltOnce:
    """A layer_norm output that spans blocks is rebuilt once per backward,
    and all its readers share that array."""

    def test_each_output_is_rebuilt_once(self, monkeypatch):
        # two layers of four-block layer_norm outputs: LN1's is read by the
        # rebuilds of Q, K and V and by the three projections' weight
        # gradients, LN2's by both MLP rules
        monkeypatch.setattr(nd, "_BLOCK_BYTES", 16 * 96 * 4)
        rng = np.random.default_rng(37)
        shapes = (("ln1.gamma", (96,)), ("ln1.beta", (96,)), ("w_q", (96, 96)),
                  ("w_k", (96, 96)), ("w_v", (96, 96)), ("w_o", (96, 96)),
                  ("ln2.gamma", (96,)), ("ln2.beta", (96,)), ("mlp.w1", (96, 384)),
                  ("mlp.b1", (384,)), ("mlp.w2", (384, 96)), ("mlp.b2", (96,)))
        params = {f"layer{l}.{n}": Tensor(rng.normal(scale=0.1, size=s).astype(np.float32),
                                          requires_grad=True)
                  for l in range(2) for n, s in shapes}
        out = encoder.encode(t(rng.normal(size=(1, 64, 96))), params, 2, 4, 0.5)
        rebuilt, real = [], nd._affine
        monkeypatch.setattr(nd, "_affine", lambda *a: rebuilt.append(a) or real(*a))
        backward(mean(out))
        assert len(rebuilt) == 4
        assert all(p.grad is not None for p in params.values())


class TestProjectedAttention:
    """attention gives the bits of split_heads, softmax(scale * Q K^T) V,
    merge_heads and w's product as a chain of primitives, with the merged
    heads, which its rule rebuilds, in one block or in many."""

    # S even and odd, 4 heads of [.., 96]: at the default budget the merged
    # heads are one block, at 16 rows they span four or more
    @pytest.mark.parametrize("x_shape", [(1, 64, 96), (2, 37, 96)])
    @pytest.mark.parametrize("budget", [None, 16 * 96 * 4])
    def test_equals_merge_then_matmul(self, monkeypatch, x_shape, budget):
        d = x_shape[-1]
        rng = np.random.default_rng(38)
        arrays = [rng.normal(scale=0.3 if i > 2 else 2.0, size=shape).astype(np.float32)
                  for i, shape in enumerate([x_shape, (d,), (d,)] + [(d, d)] * 4)]
        if budget is not None:
            monkeypatch.setattr(nd, "_BLOCK_BYTES", budget)
        assert (len(list(nd._blocks(x_shape, 4, 1))) > 1) == (budget is not None)
        expected = _outputs_and_grads(lambda *a: _ln_attention_chain(*a, n_heads=4), arrays)
        got = _outputs_and_grads(lambda *a: _ln_attention(*a, n_heads=4), arrays)
        for a, b in zip(expected, got, strict=True):
            assert a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)
        with nd.no_grad():
            out = _ln_attention(*(Tensor(a) for a in arrays), n_heads=4)
        assert out._node is None and np.array_equal(out.data, expected[0])

    @pytest.mark.parametrize("wide", range(7))
    def test_one_float64_operand_gives_the_chain_dtypes(self, monkeypatch, wide):
        rng = np.random.default_rng(39)
        arrays = [rng.normal(size=s).astype(np.float32) for s in _LN_ATTENTION_SHAPES.values()]
        arrays[wide] = arrays[wide].astype(np.float64)
        expected = _outputs_and_grads(_ln_attention_chain, arrays)
        for budget in (nd._BLOCK_BYTES, 1):
            monkeypatch.setattr(nd, "_BLOCK_BYTES", budget)
            got = _outputs_and_grads(_ln_attention, arrays)
            for a, b in zip(expected, got, strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_keep_returns_the_probabilities_beside_the_projection(self):
        q, k, v, _ = (Tensor(a, requires_grad=True)
                      for a in _attention_inputs(np.random.default_rng(40)))
        w = Tensor(np.random.default_rng(41).normal(size=(24, 5)).astype(np.float32))
        out, probs = attention(q, k, v, 3, 0.5, w, keep=True)
        qh, kh = (split_heads(x, 3) for x in (q, k))
        chain = softmax_rows(smul(matmul(qh, transpose_last(kh)), 0.5))
        assert out.shape == (2, 37, 5) and np.array_equal(probs, chain.data)
        assert np.array_equal(out.data, _attention_chain(q, k, v, 3, 0.5, w).data)

    def test_bad_projection_shape(self):
        q, k, v, _ = (Tensor(a) for a in _attention_inputs(np.random.default_rng(42)))
        for w in (np.ones((23, 5)), np.ones((24,)), np.ones((2, 24, 5))):
            with pytest.raises(ShapeError, match="projection"):
                attention(q, k, v, 3, 0.5, Tensor(w))

    def test_heads_must_divide_token_major_operands(self):
        q, k, v, w = (Tensor(a) for a in _attention_inputs(np.random.default_rng(44)))
        with pytest.raises(ShapeError, match="divisible by 5 heads"):
            attention(q, k, v, 5, 0.5, w)
        with pytest.raises(ShapeError, match="query/key/value"):  # [B, H, S, dh] heads
            attention(*(split_heads(x, 3) for x in (q, k, v)), 3, 0.5, w)

    @pytest.mark.parametrize("budget", [None, 16 * 96 * 4])
    def test_w_o_is_ready_once_after_the_attention_rule(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(nd, "_BLOCK_BYTES", budget)
        rng = np.random.default_rng(43)
        params = {"layer0." + n: Tensor(rng.normal(scale=0.1, size=s).astype(np.float32),
                                        requires_grad=True)
                  for n, s in (("ln1.gamma", (96,)), ("ln1.beta", (96,)), ("w_q", (96, 96)),
                               ("w_k", (96, 96)), ("w_v", (96, 96)), ("w_o", (96, 96)))}
        z = t(rng.normal(size=(1, 64, 96)))
        out, _ = encoder.msa(layer_norm(z, params["layer0.ln1.gamma"],
                                        params["layer0.ln1.beta"]), params, 0, 4, 0.5)
        events, rule = [], out._node._backward
        out._node._backward = lambda g: events.append("attention") or rule(g)
        backward(mean(out), ready=(params, events.append))
        assert events.count("layer0.w_o") == 1 and events.count("attention") == 1
        assert events.index("layer0.w_o") > events.index("attention")
        assert sorted(events) == sorted(["attention", *params])


class TestAttentionHolds:
    """Attention holds its [B, H, S, S] probabilities whole only where they
    are read, and never a whole gradient of them. Here each of the 8
    [256, 256] matrices (256 KiB) is a block of its own."""

    MATRIX = 256 * 256 * 4

    def _inputs(self, monkeypatch):
        monkeypatch.setattr(nd, "_BLOCK_BYTES", self.MATRIX)
        return [Tensor(a, requires_grad=True)
                for a in _attention_inputs(np.random.default_rng(26), h=4, s=256)]

    def test_no_grad_holds_output_plus_one_block(self, monkeypatch):
        q, k, v, w = self._inputs(monkeypatch)
        with nd.no_grad():
            (out, probs), peak = _traced_peak(lambda: attention(q, k, v, 4, 0.5, w))
        assert probs is None
        # the merged heads, the output's size, go before the output is
        # made; and the few KiB of operand copies BLAS may need per block
        assert peak <= out.data.nbytes + self.MATRIX + self.MATRIX // 4, \
            f"peak {peak} B for a {out.data.nbytes} B output"

    def test_recorded_holds_output_row_stats_plus_one_block(self, monkeypatch):
        q, k, v, w = self._inputs(monkeypatch)
        (out, probs), peak = _traced_peak(lambda: attention(q, k, v, 4, 0.5, w))
        assert out._node is not None and probs is None
        stats = 2 * 8 * 256 * 4  # each row's max and sum
        assert peak <= out.data.nbytes + stats + self.MATRIX + self.MATRIX // 4, \
            f"peak {peak} B; the whole probabilities are {8 * self.MATRIX} B"

    def test_backward_holds_no_whole_probabilities_gradient(self, monkeypatch):
        q, k, v, w = self._inputs(monkeypatch)
        out, _ = attention(q, k, v, 4, 0.5, w)
        g = np.random.default_rng(27).normal(size=out.shape).astype(np.float32)
        _, peak = _traced_peak(lambda: out._node._backward(g))
        grads = q.grad.nbytes + k.grad.nbytes + v.grad.nbytes + w.grad.nbytes
        # the gradients it hands over, the merged heads' gradient g w^T and
        # the rebuilt heads, and for one block the rebuilt probabilities,
        # dP and its softmax backward
        assert peak <= grads + 2 * v.data.nbytes + 3 * self.MATRIX + self.MATRIX // 4, \
            f"peak {peak} B; a whole dP is {8 * self.MATRIX} B"


class TestNoGrad:
    def test_suppresses_recording(self):
        x = t([1.0, 2.0], rg=True)
        with nd.no_grad():
            loss = mean(mul(x, x))
        with pytest.raises(GraphError):
            backward(loss)


def _toy_loss(head, batch):
    cfg = model.ModelConfig(image_size=16, patch_size=8, dim=8, heads=2, layers=2,
                            hidden_dim=8, head_variant=head)
    params = model.init_params(cfg, 4)
    pairs = patchio.synth_generate(patchio.SynthSpec(side=16, count_min=1, count_max=6,
                                                     dot_radius=1.0, seed=5), batch)
    data = patchio.make_batch(pairs, cfg.patch_size)
    preds, _ = model.forward(params, cfg, data.data)
    return params, heads.l1_loss(preds, Tensor(data.labels))


def _leaves(seed, *shapes):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True) for s in shapes]


# graph, leaf shapes: each sends one leaf's gradient through a rule that
# hands the same array (or views of it) to several parents, or one leaf
# through several rules, so a gradient kept without a copy where it is
# shared shows up as two leaves whose gradients move together
ALIAS_GRAPHS = {
    "add_one_g_to_two_leaves": (lambda a, b: add(a, b), [(3, 4), (3, 4)]),
    "add_size1_batch": (lambda a, b: add(a, b), [(1, 3, 4), (3, 4)]),
    "add_then_add": (lambda a, b, c: add(add(a, b), c), [(3, 4), (3, 4), (3, 4)]),
    "leaf_feeds_two_ops": (lambda x, y: add(gelu(x), add(smul(x, 2.0), y)), [(3, 4), (3, 4)]),
    "linear": (lambda x, w, b: add(linear(x, w, b), x),
               [(1, 5, 4), (4, 4), (4,)]),
    "linear_batch": (lambda x, w, b: linear(x, w, b), [(3, 5, 4), (4, 4), (4,)]),
    "matmul_self": (lambda x: matmul(x, x), [(4, 4)]),
    "attention": (lambda q, k, v, w: add(attention(q, k, v, 2, 0.5, w)[0], q),
                  [(1, 5, 4), (1, 5, 4), (1, 5, 4), (4, 4)]),
    "attention_self": (lambda x: attention(x, x, x, 2, 0.5, reshape(x, (4, 4)))[0], [(1, 4, 4)]),
    "layer_norm": (lambda x, gamma, beta: add(x, layer_norm(x, gamma, beta)),
                   [(2, 5, 6), (6,), (6,)]),
    "layer_norm_gamma_is_beta": (lambda x, gb: layer_norm(x, gb, gb), [(1, 5, 6), (6,)]),
    "gelu": (lambda x, y: add(gelu(x), mul(x, y)), [(1, 5, 6), (1, 5, 6)]),
    "heads": (lambda x, y: add(merge_heads(mul(split_heads(x, 2), split_heads(y, 2))), x),
              [(1, 5, 4), (1, 5, 4)]),
    "gap_pool": (lambda x, y: add(heads.gap_pool(x), heads.gap_pool(add(x, y))),
                 [(2, 5, 4), (2, 5, 4)]),
    "token_pool": (lambda x, y: add(heads.token_pool(x), heads.token_pool(add(x, y))),
                   [(2, 5, 4), (2, 5, 4)]),
    "l1_loss": (lambda p, c: add(heads.l1_loss(add(p, c), c), heads.l1_loss(p, c)),
                [(3,), (3,)]),
}


def _graph(loss):
    """Every tensor on loss's recorded graph, loss included."""
    nodes, stack = {}, [loss._node]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


class TestConstantOperands:
    """A tensor that does not require a gradient is given none."""

    def test_embed_input_and_labels_get_no_gradient(self):
        rng = np.random.default_rng(30)
        patches = rng.normal(size=(2, 5, 6)).astype(np.float32)
        proj = rng.normal(size=(6, 4)).astype(np.float32)
        labels = t([1.0, 2.0])

        def weight_grad(x):
            w = Tensor(proj, requires_grad=True)
            preds = sum_axis(mean(embedder.linear_embed(x, w), axis=1), 1)
            backward(heads.l1_loss(preds, labels))
            return w.grad

        x = t(patches)
        got = weight_grad(x)
        assert x.grad is None and labels.grad is None
        # an input that requires a gradient still takes both matmul products
        x_rg = t(patches, rg=True)
        expected = weight_grad(x_rg)
        assert x_rg.grad is not None
        assert got.dtype == expected.dtype and np.array_equal(got, expected)

    @pytest.mark.parametrize("head, n_constants", [("gap", 2), ("token", 3)])
    def test_no_constant_of_a_toy_graph_gets_a_gradient(self, head, n_constants):
        # the patches, the negated labels, and the Token head's zeros
        _, loss = _toy_loss(head, batch=2)
        constants = [n for n in _graph(loss) if not n.requires_grad]
        assert len(constants) == n_constants
        backward(loss)
        assert all(n.grad is None for n in constants)


class TestGraphKeepsWhatRulesRead:
    """A recorded forward's intermediate arrays are freed once forward code
    drops them, unless a backward rule reads them."""

    @pytest.mark.parametrize("head", ["gap", "token"])
    def test_residual_and_attention_outputs_freed_while_the_graph_lives(
            self, monkeypatch, head):
        dropped, read = [], []  # weakrefs to forward arrays
        add, real_attention, real_mlp = encoder.add, encoder.attention, heads.mlp

        def residual(a, b):  # a is the projected attention or the MLP output, b the stream
            out = add(a, b)
            dropped.extend(weakref.ref(x.data) for x in (a, out))
            return out

        def attention(q, k, v, n_heads, scale, w, keep=False):
            # the probabilities, which backward rebuilds from row statistics
            out, probs = real_attention(q, k, v, n_heads, scale, w, keep=True)
            dropped.extend(weakref.ref(x) for x in (out.data, probs))
            return out, probs if keep else None

        def regressor(x, *weights):  # the pooled features, which the rule reads
            read.append(weakref.ref(x.data))
            return real_mlp(x, *weights)

        monkeypatch.setattr(encoder, "add", residual)
        monkeypatch.setattr(encoder, "attention", attention)
        monkeypatch.setattr(heads, "mlp", regressor)
        params, loss = _toy_loss(head, batch=2)
        assert (len(dropped), len(read)) == (2 * 6, 1)  # two layers
        assert [r() for r in dropped] == [None] * len(dropped)
        assert all(r() is not None for r in read)
        backward(loss)
        assert [r() for r in read] == [None] * len(read)
        assert all(np.isfinite(p.grad).all() for p in params.values())


class TestGradientOwnership:
    """Gradients kept without a copy never alias: a rule marks a
    contribution as owned only when it allocated it for that one call."""

    @pytest.mark.parametrize("name", sorted(ALIAS_GRAPHS))
    def test_mutating_one_gradient_leaves_the_others(self, name):
        graph, shapes = ALIAS_GRAPHS[name]
        leaves = _leaves(zlib.crc32(name.encode()), *shapes)
        backward(_weighted_sum(graph(*leaves)))
        self._check_no_aliasing(leaves)

    @pytest.mark.parametrize("head", ["gap", "token"])
    def test_toy_model_gradients_do_not_alias(self, head):
        params, loss = _toy_loss(head, batch=1)
        backward(loss)
        self._check_no_aliasing(list(params.values()))

    @staticmethod
    def _check_no_aliasing(leaves):
        before = [x.grad.copy() for x in leaves]
        for i, x in enumerate(leaves):
            x.grad += 1.0
            for j, y in enumerate(leaves):
                if j != i:
                    assert np.array_equal(y.grad, before[j]), f"leaf {j} moved with leaf {i}"
            x.grad[...] = before[i]

    @pytest.mark.parametrize("head", ["gap", "token"])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_same_gradients_as_copying_every_contribution(self, monkeypatch, head, batch):
        def copying_accum(t, g, owned=False):
            t.grad = g.astype(t.dtype, copy=True) if t.grad is None else t.grad + g

        unbroadcast = nd._unbroadcast

        def summing_unbroadcast(grad, shape):
            while grad.ndim > len(shape):
                grad = grad.sum(axis=0)
            return unbroadcast(grad, shape)

        params, loss = _toy_loss(head, batch)
        backward(loss)
        monkeypatch.setattr(nd, "_accum", copying_accum)
        monkeypatch.setattr(nd, "_unbroadcast", summing_unbroadcast)
        ref, ref_loss = _toy_loss(head, batch)
        backward(ref_loss)
        for name, p in params.items():
            assert p.grad.dtype == ref[name].grad.dtype == np.float32, name
            assert np.array_equal(p.grad, ref[name].grad), name

    @pytest.mark.parametrize("grad_shape,shape", [
        ((1, 5, 7), (5, 7)), ((1, 1, 4), (4,)), ((1, 3, 1, 4), (3, 1, 4)),
        ((1, 3, 4), (1, 4)), ((1, 3, 4), (3, 4)), ((1, 1), ())])
    def test_unbroadcast_size1_axis_equals_the_sum(self, grad_shape, shape):
        g = np.random.default_rng(0).normal(size=grad_shape).astype(np.float32)
        g.reshape(-1)[::3] = -0.0
        expected = g
        while expected.ndim > len(shape):
            expected = expected.sum(axis=0)
        for axis, size in enumerate(shape):
            if size == 1 and expected.shape[axis] != 1:
                expected = expected.sum(axis=axis, keepdims=True)
        out = nd._unbroadcast(g, shape)
        assert out.shape == expected.shape == shape
        assert out.dtype == expected.dtype and np.array_equal(out, expected)

