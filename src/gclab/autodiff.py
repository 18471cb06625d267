"""Minimal reverse-mode differentiation over numpy arrays.

Only the primitives needed by the single-layer message-passing models are
provided: matmul, add, elementwise multiply, scale, concat, row gather and
scatter-sum (edge indexing), tanh, leaky ReLU, per-segment softmax, and a
mean-squared-error head. Nodes form a tape in construction order; backward
walks it once in reverse.
"""

from __future__ import annotations

import numpy as np


class Var:
    """A tape node: value, accumulated adjoint, and a local backward rule."""

    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=float)
        self.grad = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to the original shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _accumulate(var, grad):
    # no rule mutates a gradient in place, so the first one is kept uncopied
    if var.grad is None:
        var.grad = grad
    else:
        var.grad = var.grad + grad


def _sum_rows(values, index, size):
    """Rows of values summed into `size` rows by index, in index order.

    np.bincount adds its weights in input order, so each sum is bit-identical
    to a loop that adds the rows one by one onto zeros.
    """
    rest = values.shape[1:]
    width = int(np.prod(rest))
    flat = (index[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(flat, weights=values.ravel(), minlength=size * width)
    return sums.reshape((size,) + rest)


def _t(m):
    """Transpose the matrix axes (the last two) of a possibly batched operand."""
    return np.swapaxes(m, -1, -2)


def matmul(a: Var, b: Var) -> Var:
    """a @ b; operands of more than two dimensions broadcast over leading axes."""
    out = Var(a.value @ b.value, (a, b))

    def backward(g):
        av, bv = a.value, b.value
        if av.ndim == 1:
            _accumulate(a, g @ bv.T if bv.ndim == 2 else g * bv)
        else:
            gb = g[:, None] if g.ndim == 1 else g
            bm = bv[:, None] if bv.ndim == 1 else bv
            _accumulate(a, _unbroadcast(gb @ _t(bm), av.shape))
        if bv.ndim == 1:
            _accumulate(b, av.T @ g if av.ndim == 2 else av * g)
        else:
            ga = g[None, :] if g.ndim == 1 else g
            am = av[None, :] if av.ndim == 1 else av
            _accumulate(b, _unbroadcast(_t(am) @ ga, bv.shape))

    out._backward = backward
    return out


def add(a: Var, b: Var) -> Var:
    out = Var(a.value + b.value, (a, b))

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.value.shape))
        _accumulate(b, _unbroadcast(g, b.value.shape))

    out._backward = backward
    return out


def mul(a: Var, b: Var) -> Var:
    out = Var(a.value * b.value, (a, b))

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.value, a.value.shape))
        _accumulate(b, _unbroadcast(g * a.value, b.value.shape))

    out._backward = backward
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


def scatter_sum(a: Var, index: np.ndarray, size: int) -> Var:
    """Sum rows of a into an output of `size` rows grouped by index."""
    out = Var(_sum_rows(a.value, index, size), (a,))
    out._backward = lambda g: _accumulate(a, g[index])
    return out


def reshape(a: Var, shape) -> Var:
    out = Var(a.value.reshape(shape), (a,))
    out._backward = lambda g: _accumulate(a, g.reshape(a.value.shape))
    return out


def tanh(a: Var) -> Var:
    t = np.tanh(a.value)
    out = Var(t, (a,))
    out._backward = lambda g: _accumulate(a, g * (1.0 - t * t))
    return out


def leaky_relu(a: Var, slope: float = 0.2) -> Var:
    mask = a.value >= 0
    out = Var(np.where(mask, a.value, slope * a.value), (a,))
    out._backward = lambda g: _accumulate(a, g * np.where(mask, 1.0, slope))
    return out


def relu(a: Var) -> Var:
    return leaky_relu(a, 0.0)


def segment_softmax(scores: Var, offsets: np.ndarray) -> Var:
    """Softmax within contiguous segments given by offsets (len = segments + 1).

    Used for per-node attention over incoming edges; scores are (E,) or
    (E, H), with rows ordered so that each node's edges are contiguous, and
    each column of an (E, H) array is normalized on its own.
    """
    s = scores.value
    counts = np.diff(offsets)
    starts = offsets[:-1]
    seg_max = np.maximum.reduceat(s, starts, axis=0)
    e = np.exp(s - np.repeat(seg_max, counts, axis=0))
    seg_sum = np.add.reduceat(e, starts, axis=0)
    alpha = e / np.repeat(seg_sum, counts, axis=0)
    out = Var(alpha, (scores,))

    def backward(g):
        dot = np.add.reduceat(alpha * g, starts, axis=0)
        _accumulate(scores, alpha * (g - np.repeat(dot, counts, axis=0)))

    out._backward = backward
    return out


def mse(pred: Var, target: np.ndarray) -> Var:
    diff = pred.value - target
    out = Var(np.mean(diff * diff), (pred,))
    out._backward = lambda g: _accumulate(pred, g * (2.0 / diff.size) * diff)
    return out


def backward(loss: Var) -> None:
    """Populate .grad for every node reachable from a scalar loss."""
    if loss.value.shape != ():
        raise ValueError("backward requires a scalar loss")
    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.asarray(1.0)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_grads(params) -> None:
    for p in params:
        p.grad = None
