"""Generic autodiff primitives no model runs, and the fused blocks composed from them.

`gclab.autodiff` keeps the primitives the five models call. The four below
(scale, concat, gather_rows, tanh) build the composed form of each fused
message block, the reference the tests check the fused blocks against; each
adds one tape node through the same `Var` and row-sum helpers as the package.
"""

import numpy as np

from gclab import autodiff as ad
from gclab.autodiff import Var, _accumulate, _sum_rows


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
        return ad.scatter_sum(ad.mul(alpha, zj), e.dst, e.n)
    c = zj.shape[1] // heads
    msg = ad.mul(ad.reshape(alpha, (n_edges, heads, 1)), ad.reshape(zj, (n_edges, heads, c)))
    return ad.scatter_sum(ad.reshape(msg, (n_edges * heads, c)), np.repeat(e.dst, heads), e.n)


def composed_tanh_gate(h, v, dst, src, scale=None):
    """tanh(concat(h[dst], h[src]) @ v) over the (E, 2m) gathered rows."""
    gate = tanh(ad.matmul(concat([gather_rows(h, dst), gather_rows(h, src)], axis=1), v))
    return gate if scale is None else ad.mul(gate, ad.Var(scale))


def composed_gatv2_attention(z, v, e, slope):
    """add, leaky_relu, an (E, H, 1, c) @ (H, c, 1) matmul and segment_softmax."""
    n_edges, heads = len(e.dst), v.shape[0]
    hidden = ad.leaky_relu(ad.add(gather_rows(z, e.dst), gather_rows(z, e.src)), slope)
    scores = ad.matmul(ad.reshape(hidden, (n_edges, heads, 1, -1)), v)
    return ad.segment_softmax(ad.reshape(scores, (n_edges, heads)), e.offsets)
