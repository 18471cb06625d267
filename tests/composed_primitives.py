"""Generic autodiff primitives no model runs, and the fused blocks composed from them.

`gclab.autodiff` keeps the primitives the five models call. The ten below
(add, mul, reshape, scatter_sum, relu, segment_softmax, scale, concat,
gather_rows, tanh) build the composed form of each fused block, the
reference the tests check the fused blocks against; each adds one tape node
through the same `Var`, broadcast, row-sum and softmax helpers as the package.
"""

import numpy as np

from gclab import autodiff as ad
from gclab.autodiff import Var, _accumulate, _softmax_segments, _softmax_segments_grad, _sum_rows, _unbroadcast


def add(a: Var, b: Var) -> Var:
    out = Var(a.value + b.value, (a, b))

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.value.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.value.shape))

    out._backward = backward
    return out


def mul(a: Var, b: Var) -> Var:
    out = Var(a.value * b.value, (a, b))

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.value, a.value.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.value, b.value.shape))

    out._backward = backward
    return out


def scatter_sum(a: Var, index: np.ndarray, size: int) -> Var:
    """Sum rows of a into an output of `size` rows grouped by index."""
    out = Var(_sum_rows(a.value, index, size), (a,))
    out._backward = lambda g: _accumulate(a, g.take(index, axis=0))
    return out


def reshape(a: Var, shape) -> Var:
    out = Var(a.value.reshape(shape), (a,))
    out._backward = lambda g: _accumulate(a, g.reshape(a.value.shape))
    return out


def relu(a: Var) -> Var:
    return ad.leaky_relu(a, 0.0)


def segment_softmax(scores: Var, offsets: np.ndarray) -> Var:
    """Softmax within contiguous segments given by offsets (len = segments + 1).

    scores are (E,) or (E, ...), with rows ordered so that each segment's
    rows are contiguous; every other column is normalized on its own.
    """
    segment = np.repeat(np.arange(len(offsets) - 1), offsets[1:] - offsets[:-1])
    alpha = _softmax_segments(scores.value, offsets, segment)
    out = Var(alpha, (scores,))
    out._backward = lambda g: _accumulate(scores, _softmax_segments_grad(alpha, g, offsets, segment))
    return out


def scale(a: Var, s: float) -> Var:
    out = Var(a.value * s, (a,))
    out._backward = lambda g: _accumulate(a, g * s)
    return out


def concat(parts, axis=0) -> Var:
    parts = list(parts)
    out = Var(np.concatenate([p.value for p in parts], axis=axis), tuple(parts))
    sizes = [p.value.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                _accumulate(p, g[tuple(idx)])

    out._backward = backward
    return out


def gather_rows(a: Var, index: np.ndarray) -> Var:
    """Select rows by index (edge endpoint lookup)."""
    out = Var(a.value[index], (a,))
    out._backward = lambda g: _accumulate(a, _sum_rows(g, index, a.value.shape[0]))
    return out


def tanh(a: Var) -> Var:
    t = np.tanh(a.value)
    out = Var(t, (a,))
    out._backward = lambda g: _accumulate(a, g * (1.0 - t * t))
    return out


def composed_edge_messages(alpha, z, e):
    """edge_messages from mul, reshape and scatter_sum: E*H messages summed by one scatter."""
    n_edges, heads = alpha.shape
    zj = gather_rows(z, e.src)
    if heads == 1:
        return scatter_sum(mul(alpha, zj), e.dst, e.n)
    c = zj.shape[1] // heads
    msg = mul(reshape(alpha, (n_edges, heads, 1)), reshape(zj, (n_edges, heads, c)))
    return scatter_sum(reshape(msg, (n_edges * heads, c)), np.repeat(e.dst, heads), e.n)


def composed_tanh_gate(h, v, dst, src, scale=None):
    """tanh(concat(h[dst], h[src]) @ v) over the (E, 2m) gathered rows."""
    gate = tanh(ad.matmul(concat([gather_rows(h, dst), gather_rows(h, src)], axis=1), v))
    return gate if scale is None else mul(gate, ad.Var(scale))


def composed_gatv2_attention(z, v, e, slope):
    """add, leaky_relu, an (E, H, 1, c) @ (H, c, 1) matmul and segment_softmax."""
    n_edges, heads = len(e.dst), v.shape[0]
    hidden = ad.leaky_relu(add(gather_rows(z, e.dst), gather_rows(z, e.src)), slope)
    scores = ad.matmul(reshape(hidden, (n_edges, heads, 1, -1)), v)
    return segment_softmax(reshape(scores, (n_edges, heads)), e.offsets)


def composed_gin(agg, x, w1, b1, w2, b2):
    """gin_block from matmul, add and relu: relu((agg x) w1 + b1) w2 + b2."""
    h = relu(add(ad.matmul(ad.matmul(agg, x), w1), b1))
    return add(ad.matmul(h, w2), b2)


def composed_acm(x, graphs, w, v):
    """acm_block from matmul, relu, segment_softmax over the channel axis, mul, scatter_sum and reshape."""
    h = relu(ad.matmul(graphs, ad.matmul(x, w)))  # (C, n, c)
    count, n, c = h.shape
    alpha = segment_softmax(ad.matmul(h, v), np.array([0, count]))  # (C, n, 1)
    mixed = scatter_sum(mul(alpha, h), np.zeros(count, dtype=np.intp), 1)
    return reshape(mixed, (n, c))
