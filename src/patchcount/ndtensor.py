"""Minimal dense-tensor core with reverse-mode autodiff.

Tensors wrap row-major float32 numpy buffers. Every primitive records a
backward rule on the tensors it produces; calling ``backward`` on a scalar
replays those rules in reverse topological order and accumulates gradients
into every ``requires_grad`` leaf, and can hand each watched leaf to a
callback as soon as the walk order shows its gradient final. The graph
holds no forward value: each rule captures only the arrays it reads, so an
intermediate's array is freed once forward code drops it, unless a rule
holds it. Some rules keep less than they read, and rebuild the rest with
the forward's own float32 steps, so with its bits:

- ``attention`` keeps each row's softmax max and sum, and rebuilds the
  probabilities block by block; it keeps Q, K and V, but not one whose
  graph place can rebuild it, and no merged heads: it rebuilds each
  block's heads from the rebuilt probabilities and V for the output
  projection's weight gradient;
- ``gelu`` keeps its input, and its rule rebuilds tanh(u) with
  _gelu_rows, the one loop that computes tanh(u) for a gradient;
- ``mlp`` keeps nothing but its input, and not that when the input's
  graph place can rebuild it; its output rule rebuilds the input, the
  hidden layer h, and, from one tanh(u) per block, GELU(h) and h's
  gradient, which it hands to the hidden rule at every size;
- a ``layer_norm`` output's graph place rebuilds it from the x-hat that
  layer_norm keeps anyway, once per backward, and every reader shares
  that array until layer_norm's rule drops it, so ``matmul`` and ``mlp``
  keep no copy of it;
- the place of a ``matmul`` of such an output by a weight rebuilds it in
  turn with the forward's GEMM, so ``attention`` keeps no Q, K or V
  projected from a layer_norm output.

What a recorded pass keeps does not depend on the arrays' sizes. A
finite-difference checker validates the analytic gradients.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715
_LN_EPS = 1e-6

# Bytes of one block of a blocked op's largest array, for cache tiling
# only. The op's few arrays then stay together in one core's 2 MB L2
# across its passes over a block. 768 KiB is 64 rows of the paper's MLP
# activation; the toy model's arrays all fit in one block.
_BLOCK_BYTES = 768 << 10


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


class GraphError(RuntimeError):
    """Raised on invalid use of the recorded operation graph."""


class MissingGradError(GraphError):
    """A leaf that must take a gradient takes none."""


class _GradMode(threading.local):
    off = False  # a class attribute: every thread starts out recording


_grad_mode = _GradMode()


class no_grad:
    """Context manager that disables graph recording inside its block, on
    the calling thread only."""

    def __enter__(self):
        self._prev = _grad_mode.off
        _grad_mode.off = True
        return self

    def __exit__(self, *exc):
        _grad_mode.off = self._prev
        return False


class _Node:
    """A recorded op output's place in the graph: its gradient, rule and parents.

    It keeps the output's shape and dtype but not its array, which stays
    with the Tensor that forward code holds. ``rebuild``, if set, returns
    a new array with that array's bits, so a consumer's rule need not keep
    the array (see _kept).
    """

    __slots__ = ("shape", "dtype", "grad", "rebuild", "_parents", "_backward", "__weakref__")
    requires_grad = True

    def __init__(self, data, parents, backward):
        self.shape, self.dtype = data.shape, data.dtype
        self.grad = None
        self.rebuild = None
        self._parents = parents
        self._backward = backward


class Tensor:
    """Dense array with an optional gradient buffer and graph linkage.

    Data produced by an operation is treated as immutable; only leaf
    parameters are updated in place (by the optimizer, between graphs).
    A leaf is its own place in the graph, with no rule or parents, and
    holds its gradient; an op output recorded under grad mode has a
    ``_Node`` for that.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node", "__weakref__")
    _parents = ()
    _backward = None
    rebuild = None

    def __init__(self, data, requires_grad=False, dtype=np.float32):
        arr = np.asarray(data, dtype=dtype)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def node(self):
        """What the graph holds of this tensor: its _Node, or itself for a leaf."""
        return self if self._node is None else self._node

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"

    # the one operator left: perfbench's tracer test reaches the patched
    # `add` through it; the free functions hold the actual rules
    def __add__(self, other):
        return add(self, other if isinstance(other, Tensor) else Tensor(other))


def _recording(parents):
    return not _grad_mode.off and any(p.requires_grad for p in parents)


def _make(data, parents, backward):
    """Wrap an op result; records the rule only while grad is enabled.

    ``parents`` are the operands' graph places (``Tensor.node``), and
    ``backward`` reads only those and the arrays it captured, so the graph
    keeps no operand's array that the rule does not read.
    """
    out = Tensor(data, dtype=data.dtype)
    if _recording(parents):
        out.requires_grad = True
        out._node = _Node(data, tuple(parents), backward)
    return out


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to the original operand shape.

    A leading axis of size 1 is dropped by indexing, which gives a view and
    the sum's value (but keeps the sign of a -0.0, which the sum makes +0.0).
    """
    while grad.ndim > len(shape):
        grad = grad[0] if grad.shape[0] == 1 else grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _blocks(shape, itemsize, core):
    """Index tuples that cover an array of ``shape`` in C order, block by block.

    The last ``core`` axes are never split, and a block holds as many whole
    cores as fit in _BLOCK_BYTES (at least one). An array that fits is one
    block, ``(...,)``. Blocks are basic indices, so they select views, and
    an op whose every pass is elementwise or reduces within a core gives the
    same bits blocked as whole.
    """
    split = max(len(shape) - core, 0)
    item = math.prod(shape[split:]) * itemsize

    def walk(lead):
        if not lead or math.prod(lead) * item <= _BLOCK_BYTES:
            yield (...,)
            return
        inner = math.prod(lead[1:]) * item
        if inner <= _BLOCK_BYTES:
            step = _BLOCK_BYTES // inner
            for i in range(0, lead[0], step):
                yield (slice(i, i + step),)
            return
        for i in range(lead[0]):
            for rest in walk(lead[1:]):
                yield (i,) + rest

    return walk(tuple(shape[:split]))


def _accum(t, g, owned=False):
    """Add one gradient contribution ``g`` to graph place ``t``'s grad; a
    constant takes none.

    A rule passes ``owned`` only for an array it allocated for this one
    call and never touches again (or a view of such an array); a first
    contribution of the tensor's dtype is then kept as it is. Any other
    first contribution is copied, since it can be the rule's own input
    ``g``, or a view of it, that other parents also receive. Later
    contributions of ``t.grad``'s shape are added into it in place when the
    sum keeps its dtype, and into a new array otherwise (a float32 gradient
    meeting a float64 one widens).
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        # an array even where a 0-d op handed over a numpy scalar
        t.grad = np.asarray(g) if owned and g.dtype == t.dtype \
            else np.array(g, dtype=t.dtype)
    elif g.shape == t.grad.shape and np.result_type(t.grad, g) == t.grad.dtype:
        np.add(t.grad, g, out=t.grad)
    else:
        t.grad = np.asarray(t.grad + g)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a, b):
    """Elementwise sum with numpy-style broadcasting."""
    data = a.data + b.data
    a, b = a.node, b.node

    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _make(data, (a, b), backward)


def mul(a, b):
    """Elementwise product with broadcasting."""
    a_, b_ = a.data, b.data
    data = a_ * b_
    a, b = a.node, b.node

    def backward(g):
        _accum(a, _unbroadcast(g * b_, a.shape))
        _accum(b, _unbroadcast(g * a_, b.shape))

    return _make(data, (a, b), backward)


def smul(a, c):
    """Product with a python scalar."""
    c = float(c)
    data = a.data * c
    a = a.node

    def backward(g):
        _accum(a, g * c, owned=True)

    return _make(data, (a,), backward)


def _matmul_data(a, b):
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    if a.ndim > 2 and b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul batch dimensions differ: {a.shape} x {b.shape}")
    return _matmul_rows(a, b)


def _matmul_rows(a, b):
    """np.matmul(a, b), with a 2-D ``b`` as one GEMM over all of a's rows.

    numpy would call BLAS once per leading index of ``a``; one
    [prod(lead) * M, K] x [K, N] call does the same products at once.
    """
    if a.ndim <= 2 or b.ndim != 2:
        return np.matmul(a, b)
    rows = np.matmul(a.reshape(math.prod(a.shape[:-1]), a.shape[-1]), b)
    return rows.reshape(a.shape[:-1] + b.shape[-1:])


def _kept(t, arr):
    """What a rule keeps of an operand whose graph place is ``t`` and whose
    array is ``arr``: nothing when ``t`` can rebuild the array, else arr."""
    return None if t.rebuild is not None else arr


def _read(t, arr):
    """An operand's array in a rule: ``arr`` as _kept left it, else rebuilt."""
    return t.rebuild() if arr is None else arr


def _matmul_backward(a, b, a_, b_, g):
    """A product's gradients into graph places ``a`` and ``b``, whose arrays
    are ``a_`` and ``b_`` (or None, to rebuild through the place)."""
    if a.requires_grad:
        b_ = np.swapaxes(_read(b, b_), -1, -2)
        _accum(a, _unbroadcast(_matmul_rows(g, b_), a.shape), owned=True)
    if b.requires_grad:
        a_ = np.swapaxes(_read(a, a_), -1, -2)
        _accum(b, _unbroadcast(np.matmul(a_, g), b.shape), owned=True)


def matmul(a, b):
    """Batched matrix product over the last two axes.

    Leading batch dimensions must match or be absent on one side. A
    recorded product keeps no operand that its graph place can rebuild.
    When its left operand's place can rebuild and its right operand is a
    leaf (a weight, which the rule keeps anyway), the product's own place
    can rebuild it too, with the forward's GEMM on the rebuilt left
    operand: a layer_norm output times w_q is one. It reads the weight as
    it is then; the weight's last consumer is this rule, which runs after
    every consumer of the product, so after every rebuild.
    """
    a_, b_, a, b = a.data, b.data, a.node, b.node
    data = _matmul_data(a_, b_)
    a_, b_ = _kept(a, a_), _kept(b, b_)
    out = _make(data, (a, b), lambda g: _matmul_backward(a, b, a_, b_, g))
    if out._node is not None and a.rebuild is not None and isinstance(b, Tensor):
        out._node.rebuild = lambda: _matmul_data(a.rebuild(), b_)
    return out


def transpose_last(a):
    """Swap the last two axes."""
    data = np.swapaxes(a.data, -1, -2)
    a = a.node

    def backward(g):
        _accum(a, np.swapaxes(g, -1, -2))

    return _make(data, (a,), backward)


def reshape(a, shape):
    shape = tuple(shape)
    data = a.data.reshape(shape)
    a = a.node

    def backward(g):
        _accum(a, g.reshape(a.shape))

    return _make(data, (a,), backward)


def mean(a, axis=None):
    """Arithmetic mean over one axis, or over all elements when axis=None."""
    data = a.data.mean(axis=axis)
    n = a.data.size if axis is None else a.shape[axis]
    a = a.node

    def backward(g):
        if axis is None:
            _accum(a, np.full(a.shape, g / n, dtype=a.dtype), owned=True)
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.shape) / n, owned=True)

    return _make(np.asarray(data), (a,), backward)


def sum_axis(a, axis):
    """Sum over one axis."""
    data = a.data.sum(axis=axis)
    a = a.node

    def backward(g):
        _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.shape))

    return _make(data, (a,), backward)


def concat(tensors, axis):
    """Concatenate along an existing axis."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    tensors = [t.node for t in tensors]

    def backward(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offset, offset + size)
            _accum(t, g[tuple(idx)])
            offset += size

    return _make(data, tuple(tensors), backward)


def slice_axis(a, axis, start, stop):
    """Contiguous slice [start, stop) along one axis.

    The result is a copy, so it does not keep the rest of a's buffer alive
    (the Token head slices one row out of the last layer's [B, S, D]).
    """
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    data = a.data[idx].copy()
    a = a.node

    def backward(g):
        full = np.zeros(a.shape, dtype=g.dtype)
        full[idx] = g
        _accum(a, full, owned=True)

    return _make(data, (a,), backward)


def absolute(a):
    """Elementwise |x|; subgradient 0 at exactly 0."""
    a_ = a.data
    data = np.abs(a_)
    a = a.node

    def backward(g):
        _accum(a, g * np.sign(a_), owned=True)

    return _make(data, (a,), backward)


def softmax_rows(x):
    """Row-stochastic softmax over the last axis, max-shifted for stability."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)
    x = x.node

    def backward(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        _accum(x, data * (g - dot))

    return _make(data, (x,), backward)


def _check_attention(q, k, v, n_heads, w):
    if q.ndim != 3 or k.ndim != 3 or k.shape != v.shape or q.shape[::2] != k.shape[::2] \
            or q.shape[-1] % n_heads:
        raise ShapeError(f"attention needs [B, S, D] query/key/value shapes, D divisible "
                         f"by {n_heads} heads, got {q.shape} and {k.shape} and {v.shape}")
    if w.ndim != 2 or w.shape[0] != q.shape[-1]:
        raise ShapeError(f"attention's output projection needs a [D, N] weight for "
                         f"{q.shape} heads, got {w.shape}")


def _softmax_scaled_(p, scale, stats=None):
    """softmax(scale * p) over the last axis, in place; returns the row max
    and row sum it used, as two [..., 1] arrays.

    Given ``stats``, a (max, sum) pair an earlier call on the same logits
    returned, it uses them in place of its own reductions, so the result
    has that call's bytes.
    """
    p *= scale
    row_max = p.max(axis=-1, keepdims=True) if stats is None else stats[0]
    p -= row_max
    np.exp(p, out=p)
    row_sum = p.sum(axis=-1, keepdims=True) if stats is None else stats[1]
    p /= row_sum
    return row_max, row_sum


def attention(q, k, v, n_heads, scale, w, keep=False):
    """Multi-head softmax(scale * Q K^T) V, its heads merged and projected
    by ``w``; returns (output, the [B, H, Sq, Sk] probabilities with
    ``keep``, else None).

    Q, K and V are token-major [B, S, D] (K and V of one shape), and head
    h is feature slice [h*D/H, (h+1)*D/H) of each, read as a view. Each
    head's P V is written into that slice of one [B, Sq, D] buffer, which
    is the merged heads, and the gradients of Q and V are written the same
    way, so no head is split or merged by a copy. One block of whole
    [Sq, Sk] matrices at a time, the logits are scaled, shifted and
    normalised in place on the Q K^T product and multiplied by V while
    they are in cache. The probabilities are kept whole only with
    ``keep``, to be returned; otherwise the pass holds one block of them,
    however many heads and tiles there are. A recorded pass keeps each
    row's max and sum: backward rebuilds each block of probabilities from
    Q, K and those, with the forward's own float32 steps, right before it
    reads the block, and then the block's heads, P V with the forward's
    GEMM, for w's gradient. It keeps no Q, K or V whose graph place can
    rebuild it (a projection of a layer_norm output, see matmul): the
    rule rebuilds them first. Backward runs block by block, so it never
    holds a whole gradient of the probabilities either. The float32
    operations and their order, forward and backward, are those of
    matmul(merge_heads(matmul(softmax_rows(smul(matmul(split_heads(q),
    transpose_last(split_heads(k))), scale)), split_heads(v))), w).
    """
    _check_attention(q, k, v, n_heads, w)
    scale = float(scale)  # a numpy float64 would scale the float32 logits in float64
    q_, k_, v_, w_, q, k, v, w = q.data, k.data, v.data, w.data, q.node, k.node, v.node, w.node
    shape = (q.shape[0], n_heads, q.shape[1], k.shape[1])
    dtype, heads_dtype = np.result_type(q_, k_), np.result_type(q_, k_, v_)
    p = np.empty(shape, dtype) if keep else None
    stats = [np.empty(shape[:-1] + (1,), dtype) for _ in range(2)] \
        if _recording((q, k, v, w)) else None
    merged = np.empty(q.shape, heads_dtype)
    qh, kh, vh, mh = (_heads(a, n_heads) for a in (q_, k_, v_, merged))
    for i in _blocks(shape, dtype.itemsize, 2):
        p_i = np.matmul(qh[i], np.swapaxes(kh[i], -1, -2), out=None if p is None else p[i])
        row_max, row_sum = _softmax_scaled_(p_i, scale)
        if stats is not None:
            stats[0][i], stats[1][i] = row_max, row_sum
        np.matmul(p_i, vh[i], out=mh[i])
        del p_i  # a block not kept goes before the next one is made
    out = _matmul_data(merged, w_)
    kept = tuple((t, _kept(t, a)) for t, a in ((q, q_), (k, k_), (v, v_)))

    def backward(g):
        # the merged heads' gradient in their dtype, as w's product hands it on
        dm = _matmul_rows(g, np.swapaxes(w_, -1, -2)).astype(heads_dtype, copy=False)
        m = np.empty(dm.shape, heads_dtype) if w.requires_grad else None
        q_, k_, v_ = (_read(t, a) for t, a in kept)
        dq = np.empty(q.shape, np.result_type(dtype, k_))
        dv = np.empty(v.shape, np.result_type(dtype, dm))
        dk_t = np.empty(shape[:2] + (q.shape[-1] // n_heads, shape[-1]), np.result_type(q_, dtype))
        qh, kh, vh, dmh, dqh, dvh = (_heads(a, n_heads) for a in (q_, k_, v_, dm, dq, dv))
        for i in _blocks(shape, dtype.itemsize, 2):
            p_i = np.matmul(qh[i], np.swapaxes(kh[i], -1, -2))
            _softmax_scaled_(p_i, scale, (stats[0][i], stats[1][i]))
            if m is not None:
                np.matmul(p_i, vh[i], out=_heads(m, n_heads)[i])
            g_i = dmh[i]
            np.matmul(np.swapaxes(p_i, -1, -2), g_i, out=dvh[i])
            # dP, in the probabilities' dtype, as a graph node of its own
            # would hold it, then the softmax backward on it in place
            dl = np.matmul(g_i, np.swapaxes(vh[i], -1, -2)).astype(dtype, copy=False)
            dl -= (dl * p_i).sum(axis=-1, keepdims=True)
            dl *= p_i
            del p_i  # a rebuilt block goes before the next one is made
            dl *= scale
            np.matmul(dl, kh[i], out=dqh[i])
            np.matmul(np.swapaxes(qh[i], -1, -2), dl, out=dk_t[i])
        if w.requires_grad:
            _accum(w, _unbroadcast(np.matmul(np.swapaxes(m, -1, -2), g), w.shape), owned=True)
        _accum(v, dv, owned=True)
        _accum(q, dq, owned=True)
        # [B, H, dh, Sk] to token-major, laid out as split_heads' rule lays it
        _accum(k, dk_t.transpose(0, 3, 1, 2).reshape(k.shape), owned=True)

    return _make(out, (q, k, v, w), backward), p


def _heads(x_, n_heads):
    """[B, S, D] -> the [B, H, S, D/H] view of the same buffer."""
    b, s, d = x_.shape
    return x_.reshape(b, s, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def split_heads(x, n_heads):
    """[B, S, D] -> [B, H, S, D/H]: head h is feature slice [h*D/H, (h+1)*D/H).

    The result is a view of x's buffer.
    """
    if x.ndim != 3 or x.shape[-1] % n_heads:
        raise ShapeError(f"split_heads needs [B, S, D] with D divisible by {n_heads}, "
                         f"got {x.shape}")
    data = _heads(x.data, n_heads)
    x = x.node

    def backward(g):
        dx = np.swapaxes(g, 1, 2).reshape(x.shape)
        # a copy of g, unless there is one head or one token
        _accum(x, dx, owned=not np.may_share_memory(dx, g))

    return _make(data, (x,), backward)


def merge_heads(x):
    """[B, H, S, dh] -> [B, S, H*dh], the inverse of split_heads."""
    if x.ndim != 4:
        raise ShapeError(f"merge_heads needs [B, H, S, dh], got {x.shape}")
    b, h, s, dh = x.shape
    data = np.swapaxes(x.data, 1, 2).reshape(b, s, h * dh)
    x = x.node

    def backward(g):
        _accum(x, np.swapaxes(g.reshape(b, s, h, dh), 1, 2))

    return _make(data, (x,), backward)


def _linear_data(x_, w_, b_):
    """x_ @ w_ + b_, with the bias added in place on the product."""
    data = _matmul_data(x_, w_)
    data = data.astype(np.result_type(data, b_), copy=False)
    data += b_
    return data


def _linear_backward(x, w, b, x_, w_, g):
    """x @ w + b's gradients into graph places ``x``, ``w`` and ``b``."""
    _accum(b, _unbroadcast(g, b.shape))
    _matmul_backward(x, w, x_, w_, g)


def linear(x, w, b):
    """x @ w + b, with the bias added in place on the product."""
    x_, w_ = x.data, w.data
    data = _linear_data(x_, w_, b.data)
    x, w, b = x.node, w.node, b.node
    return _make(data, (x, w, b), lambda g: _linear_backward(x, w, b, x_, w_, g))


def _affine(gamma_, xhat, beta_, out):
    """out = gamma_ * xhat + beta_, written into ``out``, which it returns."""
    np.multiply(gamma_, xhat, out=out)
    out += beta_
    return out


def layer_norm(x, gamma, beta):
    """Normalize the last axis to mean 0 / population variance 1, then affine.

    Runs over blocks of rows; the gamma and beta gradients, which sum over
    rows, are reduced over the whole array as one. The variance takes
    ndarray.var's steps on x - mean (square, add.reduce, divide by the row
    length), so it has var's bytes without var's second pass for the mean.
    A recorded pass keeps x-hat, the normalized x, for its rule, and the
    output's graph place rebuilds the output as gamma * x-hat + beta with
    the forward's steps, so the matmul and mlp rules that read it keep no
    copy. The first rebuild in a backward makes the array, every later
    one returns it, and this rule drops it. It reads gamma and beta as
    they are then: their last consumer is this rule, which runs after
    every reader.
    """
    if x.shape[-1] != gamma.shape[-1] or x.shape[-1] != beta.shape[-1]:
        raise ShapeError(
            f"layer_norm feature sizes differ: x {x.shape}, gamma {gamma.shape}, beta {beta.shape}")
    x_, gamma_, beta_ = x.data, gamma.data, beta.data
    n = x_.shape[-1]
    inv_std = np.empty(x_.shape[:-1] + (1,), x_.dtype)
    xhat = np.empty(x_.shape, x_.dtype)
    shape, dtype = x_.shape, np.result_type(gamma_, xhat, beta_)
    data = np.empty(shape, dtype)
    for i in _blocks(x_.shape, x_.itemsize, 1):
        x_i, xhat_i = x_[i], xhat[i]
        np.subtract(x_i, x_i.mean(axis=-1, keepdims=True), out=xhat_i)
        var = np.add.reduce(np.square(xhat_i), axis=-1, keepdims=True)
        var /= n
        np.divide(1.0, np.sqrt(var + _LN_EPS), out=inv_std[i])
        xhat_i *= inv_std[i]
        _affine(gamma_, xhat_i, beta_, data[i])
    x, gamma, beta = x.node, gamma.node, beta.node

    def backward(g):
        rebuild.cache_clear()
        lead = tuple(range(g.ndim - 1))
        _accum(gamma, (g * xhat).sum(axis=lead), owned=True)
        _accum(beta, g.sum(axis=lead), owned=True)
        dx = np.empty(g.shape, np.result_type(inv_std, g, gamma_, xhat))
        for i in _blocks(g.shape, g.itemsize, 1):
            xhat_i = xhat[i]
            dxhat = g[i] * gamma_
            np.multiply(inv_std[i], dxhat
                        - dxhat.mean(axis=-1, keepdims=True)
                        - xhat_i * (dxhat * xhat_i).mean(axis=-1, keepdims=True),
                        out=dx[i])
        _accum(x, dx, owned=True)

    rebuild = functools.cache(lambda: _affine(gamma_, xhat, beta_, np.empty(shape, dtype)))
    out = _make(data, (x, gamma, beta), backward)
    if out._node is not None:
        out._node.rebuild = rebuild
    return out


def _gelu_tanh(x, dtype):
    """tanh(sqrt(2/pi) * (x + C * x * x * x)) as a new array of ``dtype``."""
    t = np.empty(x.shape, dtype)
    # multiplied out: float32 `** 3` goes through powf, ~25x slower, and
    # rounds however the numpy build's pow does
    np.multiply(_GELU_C, x, out=t)
    t *= x
    t *= x
    np.add(x, t, out=t)
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)
    return t


def _gelu_slope(x_, t, d):
    """gelu'(x_) in place in ``d``, which holds 1 + tanh(u) on entry, ``t``
    being tanh(u), which it overwrites; returns d."""
    du = np.square(x_)
    du *= 3.0 * _GELU_C
    du += 1.0
    du *= _SQRT_2_OVER_PI
    d *= 0.5
    np.square(t, out=t)
    np.subtract(1.0, t, out=t)
    t *= 0.5 * x_  # 0.5 * x * (1 - t**2) * du
    t *= du
    d += t
    return d


def _gelu_rows(x_, out, g=None):
    """GELU of ``x_`` into ``out``, which may be ``x_`` itself, one block of
    rows at a time. Given ``g``, an array of x_'s shape (with an ``out``
    that is not x_), it also multiplies g by gelu'(x_) in place, from the
    same tanh(u).

    tanh(u), and then 1 + tanh(u), live in one block-sized buffer per
    block (two with ``g``). Each float32 operation has the operands and
    order of the plain formulas 0.5 * x * (1 + tanh(sqrt(2/pi) * (x + C * x
    * x * x))) and its derivative, so a rebuilt output has the first one's
    bits, and g's product those of g * gelu'(x), whichever operand a
    caller holds in place, since a float product commutes.
    """
    for i in _blocks(x_.shape, out.dtype.itemsize, 1):
        x_i, out_i = x_[i], out[i]
        t_i = _gelu_tanh(x_i, out.dtype)
        s_i = np.add(1.0, t_i, out=None if g is not None else t_i)
        np.multiply(0.5, x_i, out=out_i)
        out_i *= s_i
        if g is not None:
            g[i] *= _gelu_slope(x_i, t_i, s_i)
        del t_i, s_i  # a block goes before the next one is made


def gelu(x):
    """GELU via the tanh approximation (see _gelu_rows).

    Only the output is whole-array; a recorded pass keeps x for backward,
    which rebuilds each block's tanh(u) from it with _gelu_rows and
    multiplies a copy of g by gelu'(x) in place.
    """
    x_ = x.data
    dtype = np.result_type(_GELU_C, x_)
    data = np.empty(x_.shape, dtype)
    _gelu_rows(x_, data)
    x = x.node

    def backward(g):
        dx = np.array(g, dtype=dtype)
        _gelu_rows(x_, np.empty(x_.shape, dtype), dx)
        _accum(x, dx, owned=True)

    return _make(data, (x,), backward)


def mlp(x, w1, b1, w2, b2):
    """linear(gelu(linear(x, w1, b1)), w2, b2), recorded as two graph
    nodes: GELU(h), whose rule runs the first linear's backward, and the
    output, whose rule runs the second linear's and gelu's.

    h = x @ w1 + b1 and its GELU run as linear and gelu run them, GELU(h)
    written over h. x is dropped before the GELU, so an x that only the
    call holds (an argument built inline) is freed before the 4D-wide
    pass. A recorded pass keeps nothing but x, and not x when its graph
    place can rebuild it (a layer_norm output's can). The output's rule
    takes GELU(h)'s gradient from w2, then rebuilds x (through x's graph
    place, which the hidden rule reads it from too) and h with the
    forward's own GEMM; those rebuilds read w1 and b1 before the hidden
    rule, their last consumer. One blocked pass then computes each
    block's tanh(u) once, for GELU(h), which the w2 weight-gradient GEMM
    reads, and for h's gradient, written in place for the hidden rule.
    The float32 operations and their order, forward and backward, are
    those of the three ops, and each array goes when their rules would
    drop it.
    """
    record = _recording((x, w1, b1, w2, b2))
    x_, w1_, b1_, w2_, b2_ = x.data, w1.data, b1.data, w2.data, b2.data
    h = _linear_data(x_, w1_, b1_)
    if record:
        x, w1, b1, w2, b2 = (v.node for v in (x, w1, b1, w2, b2))
        x_ = _kept(x, x_)
    else:
        x = x_ = None
    _gelu_rows(h, h)
    data = _linear_data(h, w2_, b2_)
    if not record:
        return Tensor(data, dtype=data.dtype)
    hidden = _Node(h, (x, w1, b1), lambda d: _linear_backward(x, w1, b1, x_, w1_, d))

    def backward(g):
        _accum(b2, _unbroadcast(g, b2.shape))
        # GELU(h)'s gradient in the hidden place's dtype, as _accum would
        # take it, then h's, in place; h is rebuilt with the forward's
        # steps, so with its bits
        dh = _matmul_rows(g, np.swapaxes(w2_, -1, -2)).astype(hidden.dtype, copy=False)
        h = _linear_data(_read(x, x_), w1_, b1_)
        a = np.empty(h.shape, hidden.dtype)
        _gelu_rows(h, a, dh)
        del h
        if w2.requires_grad:
            _accum(w2, _unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), w2.shape), owned=True)
        _accum(hidden, dh, owned=True)

    return _make(data, (hidden, w2, b2), backward)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss, ready=None):
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf.

    The recorded graph is consumed as it goes: each node drops its rule
    and its parents once its rule has run, and a second backward through
    the same forward pass raises instead of silently double-accumulating.

    ``ready``, if given, is a pair (leaves, done): ``leaves`` maps keys to
    watched leaves, and ``done(key)`` is called once per key, where the
    walk order puts that leaf: right after the last rule that adds to its
    gradient, which is then final. A watched leaf that takes no gradient
    from this loss raises MissingGradError, naming its key, before any
    rule runs.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")
    root = loss._node
    if root is None:
        raise GraphError("loss tensor is not on a recorded graph")
    if root._backward is None:  # an op output's node loses its rule only in backward
        raise GraphError("backward already called on this graph; run a new forward pass")
    leaves, done = ready if ready is not None else ({}, None)
    watched = {id(leaf): key for key, leaf in leaves.items()}

    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        # leaf parents go on the stack first, so they come off last: a leaf
        # lands in the order right before the consumer that first reached
        # it and its other consumers after, so that rule is its last to run
        for p in node._parents:
            if p._backward is None and id(p) not in seen:
                stack.append((p, False))
        for p in node._parents:
            if p._backward is not None and id(p) not in seen:
                stack.append((p, False))
    for key, leaf in leaves.items():
        if not (leaf.requires_grad and id(leaf) in seen):
            raise MissingGradError(f"{key!r} takes no gradient from this loss")

    root.grad = np.ones_like(loss.data)
    while order:
        # popped, so that a node's rule and the arrays it holds are freed
        # once its consumers and its own rule have run, not when the whole
        # pass ends
        node = order.pop()
        if node._backward is None:  # a leaf, or a node an earlier pass consumed
            if id(node) in watched:
                done(watched[id(node)])
            continue
        if node.grad is not None:
            node._backward(node.grad)
        node._backward = node.rebuild = None
        node._parents = ()
        node.grad = None  # intermediate grads are scratch space


# ---------------------------------------------------------------------------
# finite-difference checking
# ---------------------------------------------------------------------------

def grad_check(f, params, h=1e-3, high_precision=False, sample=None):
    """Compare analytic gradients of ``f(params)`` against central differences.

    Returns the max over checked coordinates of
    |analytic - numeric| / max(1, |analytic|, |numeric|).

    ``sample`` optionally restricts the check to the given flat coordinate
    indices. With ``high_precision`` the evaluations run on a float64 copy
    of ``params`` (the 64-bit re-check switch). A NaN error is returned as
    NaN; a check of no coordinate raises.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"grad_check step h must be finite and > 0, got {h!r}")
    coords = range(params.data.size) if sample is None else sample
    if len(coords) == 0:
        raise ValueError("grad_check has no coordinate to check")
    original = params.data
    if high_precision:
        params.data = original.astype(np.float64)
    try:
        y1 = float(f(params).data)
        y2 = float(f(params).data)
        if y1 != y2:
            raise GraphError("grad_check requires a deterministic function; "
                             f"two evaluations gave {y1!r} and {y2!r}")

        params.zero_grad()
        loss = f(params)
        backward(loss)
        analytic = params.grad.reshape(-1).astype(np.float64)

        flat = params.data.reshape(-1)
        max_err = 0.0
        with no_grad():
            for i in coords:
                saved = flat[i]
                flat[i] = saved + h
                f_plus = float(f(params).data)
                flat[i] = saved - h
                f_minus = float(f(params).data)
                flat[i] = saved
                numeric = (f_plus - f_minus) / (2.0 * h)
                a = analytic[i]
                err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
                if err > max_err or math.isnan(err):  # a NaN stays
                    max_err = err
        return max_err
    finally:
        if high_precision:
            params.data = original
        params.zero_grad()
