"""Minimal reverse-mode differentiation over numpy arrays.

Only the primitives the single-layer message-passing models run are
provided. Nine are generic: matmul, add, mul, reshape, scatter_sum,
leaky_relu, relu, segment_softmax and the mse head. Three are fused message
blocks, each one tape node with a hand-written backward: edge_messages (the
per-head message sum into each edge's destination), tanh_gate (the
split-form edge gate of fagcn and eq. 14) and gatv2_attention (GATv2's
scores and softmax). backward lists the nodes that require grad in
depth-first post-order from the loss, runs each rule once in the reverse of
that order and releases the tape. A leaf built with requires_grad=False is a
constant: no rule computes its adjoint, and backward does not walk into a
subgraph built only from constants.
"""

from __future__ import annotations

import math

import numpy as np


class Var:
    """A tape node: value, accumulated adjoint, and a local backward rule.

    A node built from parents requires grad if any parent does; the keyword
    sets it for a leaf.
    """

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, parents=(), backward=None, requires_grad=True):
        self.value = np.asarray(value, dtype=float)
        self.grad = None
        if parents:
            requires_grad = False
            for p in parents:
                requires_grad = requires_grad or p.requires_grad
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to the original shape."""
    if grad.shape == shape:
        return grad
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
    width = math.prod(rest)
    flat = (index[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(flat, weights=values.ravel(), minlength=size * width)
    return sums.reshape((size,) + rest)


def _t(m):
    """Transpose the matrix axes (the last two) of a possibly batched operand."""
    return np.swapaxes(m, -1, -2)


def matmul(a: Var, b: Var) -> Var:
    """a @ b of matrices, stacks of them broadcasting over leading axes; a 1-D operand raises."""
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ValueError(f"matmul needs operands of at least two dimensions, got {a.shape} and {b.shape}")
    out = Var(a.value @ b.value, (a, b))

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ _t(b.value), a.value.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(_t(a.value) @ g, b.value.shape))

    out._backward = backward
    return out


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
    out._backward = lambda g: _accumulate(a, np.take(g, index, axis=0))
    return out


def reshape(a: Var, shape) -> Var:
    out = Var(a.value.reshape(shape), (a,))
    out._backward = lambda g: _accumulate(a, g.reshape(a.value.shape))
    return out


def leaky_relu(a: Var, slope: float) -> Var:
    # 1 where a >= 0, slope elsewhere: (1 - slope) + slope rounds to exactly 1
    factor = (a.value >= 0) * (1.0 - slope) + slope
    out = Var(a.value * factor, (a,))
    out._backward = lambda g: _accumulate(a, g * factor)
    return out


def relu(a: Var) -> Var:
    return leaky_relu(a, 0.0)


def _softmax_segments(s, offsets, segment):
    """Softmax along axis 0 within each segment offsets[i]:offsets[i + 1]; row r is in segment[r]."""
    starts = offsets[:-1]
    e = np.exp(s - np.take(np.maximum.reduceat(s, starts, axis=0), segment, axis=0))
    return e / np.take(np.add.reduceat(e, starts, axis=0), segment, axis=0)


def _softmax_segments_grad(alpha, g, offsets, segment):
    """Adjoint of the scores given alpha = _softmax_segments(scores) and its adjoint g."""
    dot = np.add.reduceat(alpha * g, offsets[:-1], axis=0)
    return alpha * (g - np.take(dot, segment, axis=0))


def segment_softmax(scores: Var, offsets: np.ndarray) -> Var:
    """Softmax within contiguous segments given by offsets (len = segments + 1).

    Used for per-node attention over incoming edges; scores are (E,) or
    (E, H), with rows ordered so that each node's edges are contiguous, and
    each column of an (E, H) array is normalized on its own.
    """
    segment = np.repeat(np.arange(len(offsets) - 1), offsets[1:] - offsets[:-1])
    alpha = _softmax_segments(scores.value, offsets, segment)
    out = Var(alpha, (scores,))
    out._backward = lambda g: _accumulate(scores, _softmax_segments_grad(alpha, g, offsets, segment))
    return out


def tanh_gate(h: Var, v: Var, dst: np.ndarray, src: np.ndarray, scale=None) -> Var:
    """Edge gate tanh(h[dst] @ v_top + h[src] @ v_bot), times the constant column scale.

    h is (n, m) node rows and v is (2m, H), head k's vector in column k, with
    v_top = v[:m] and v_bot = v[m:]. The value is tanh([h[dst], h[src]] @ v)
    on the edges dst[e] <- src[e], but both products run on the n node rows
    and the backward sums (E, H) adjoints, never (E, 2m) rows. Returns (E, H);
    scale, if given, is an (E, 1) constant.
    """
    hv, vv = h.value, v.value
    n, m = hv.shape
    if vv.ndim != 2 or vv.shape[0] != 2 * m:
        raise ValueError(f"tanh_gate needs v of shape (2m, H), 2m = {2 * m}; got {vv.shape}")
    halves = vv.reshape(2, m, -1)  # v_top, v_bot
    node = hv @ halves  # (2, n, H)
    t = np.tanh(np.take(node[0], dst, axis=0) + np.take(node[1], src, axis=0))
    out = Var(t if scale is None else t * scale, (h, v))

    def backward(g):
        gs = g * (1.0 - t * t) if scale is None else g * scale * (1.0 - t * t)
        # one bincount: the dst sums into rows 0..n-1, the src sums into rows n..2n-1
        gn = _sum_rows(np.concatenate((gs, gs)), np.concatenate((dst, src + n)), 2 * n).reshape(2, n, -1)
        if h.requires_grad:
            _accumulate(h, gn[0] @ halves[0].T + gn[1] @ halves[1].T)
        if v.requires_grad:
            _accumulate(v, (hv.T @ gn).reshape(vv.shape))

    out._backward = backward
    return out


def gatv2_attention(z: Var, v: Var, dst, src, offsets, reverse, slope: float) -> Var:
    """GATv2 attention: per head k, softmax within each dst segment of v_k . leaky(z[dst] + z[src]).

    z is (n, H*c), head k in columns k*c:(k+1)*c, and v is (H, c, 1). The
    edges dst[e] <- src[e] are sorted by dst, offsets delimit each node's
    block and every node has one; the edge set is symmetric, edge reverse[e]
    being src[e] <- dst[e]. Returns the (E, H) coefficients.

    leaky(u) = slope * u + (1 - slope) * relu(u), so a score is a node-level
    part slope * (p[dst] + p[src]), p = z v, plus an edge part over relu(u).
    u = z[dst] + z[src] is the same for an edge and its reverse, so the
    backward adds the two directions' adjoints and sums into dst in one pass.
    """
    zv, vv = z.value, v.value
    heads, c = vv.shape[:2]
    diag = np.arange(heads)
    blocks = np.zeros((heads, c, heads))
    blocks[diag, :, diag] = vv[:, :, 0]
    blocks = blocks.reshape(heads * c, heads)  # column k holds v_k in rows k*c:(k+1)*c
    p = zv @ blocks  # (n, H)
    r = np.take(zv, dst, axis=0)
    r += np.take(zv, src, axis=0)
    np.maximum(r, 0.0, out=r)  # relu(z_i + z_j), (E, H*c)
    pair = np.take(p, dst, axis=0) + np.take(p, src, axis=0)
    alpha = _softmax_segments(slope * pair + (1.0 - slope) * (r @ blocks), offsets, dst)
    out = Var(alpha, (z, v))

    def backward(g):
        gs = _softmax_segments_grad(alpha, g, offsets, dst)  # (E, H)
        both = gs + np.take(gs, reverse, axis=0)  # the adjoints of e and of its reverse, both summed into dst[e]
        gp = slope * np.add.reduceat(both, offsets[:-1], axis=0)  # (n, H)
        if z.requires_grad:
            gr = ((1.0 - slope) * both) @ blocks.T
            gr *= r > 0
            _accumulate(z, gp @ blocks.T + np.add.reduceat(gr, offsets[:-1], axis=0))
        if v.requires_grad:
            gb = (zv.T @ gp + (1.0 - slope) * (r.T @ gs)).reshape(heads, c, heads)
            _accumulate(v, gb[diag, :, diag][:, :, None])

    out._backward = backward
    return out


def edge_messages(alpha: Var, z: Var, dst: np.ndarray, src: np.ndarray) -> Var:
    """Sum alpha[e, k] * z[src[e], k*c:(k+1)*c] over edges e and heads k into row dst[e].

    alpha is (E, H) and z the (n, H*c) node projections; the result is
    (n, c). Each (dst, src) pair occurs at most once, so alpha fills the
    (n, n*H) operator a[i, j*H + k] = alpha[e, k] of edge e = (i <- j), and
    the value is a @ z.reshape(n*H, c); the backward is two more products.
    At the graph sizes this lab runs (n <= 128) the three BLAS products beat
    gathering z[src] and scattering (E, H, c) messages and adjoints.
    """
    av, zv = alpha.value, z.value
    n, heads = zv.shape[0], av.shape[1]
    op = np.zeros((n, n, heads))
    op[dst, src] = av
    op = op.reshape(n, n * heads)
    rows = zv.reshape(n * heads, -1)  # row j*H + k is head k's block of z[j]
    out = Var(op @ rows, (alpha, z))

    def backward(g):
        if alpha.requires_grad:
            _accumulate(alpha, (g @ rows.T).reshape(n, n, heads)[dst, src])
        if z.requires_grad:
            _accumulate(z, (op.T @ g).reshape(zv.shape))

    out._backward = backward
    return out


def mse(pred: Var, target: np.ndarray) -> Var:
    """Mean squared error against a target of the prediction's shape."""
    if np.shape(target) != pred.shape:
        raise ValueError(f"mse target of shape {np.shape(target)} does not match the prediction's {pred.shape}")
    diff = pred.value - target
    out = Var(np.add.reduce(diff * diff, axis=None) / diff.size, (pred,))
    out._backward = lambda g: _accumulate(pred, g * (2.0 / diff.size) * diff)
    return out


def backward(loss: Var) -> None:
    """Populate .grad for every node reachable from a scalar loss, consuming the tape.

    Each rule runs once and is then released with the arrays it saved, so the
    tape's memory is freed before the next forward builds a new one. The walk
    skips constants, whose rules and grads are left alone.
    """
    if loss.value.shape != ():
        raise ValueError("backward requires a scalar loss")
    if not loss.requires_grad:
        return
    # post-order: a node is pushed to enter it and again to list it, after its parents
    order = []
    listed = {}  # Var (hashed by identity) -> False once entered, True once listed
    stack = [loss]
    while stack:
        node = stack.pop()
        if node not in listed:
            listed[node] = False
            stack.append(node)
            for p in node._parents:
                if p.requires_grad and p not in listed:
                    stack.append(p)
        elif not listed[node]:
            listed[node] = True
            order.append(node)
    loss.grad = np.asarray(1.0)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        # a tape is walked once: drop the rule and its saved arrays as soon as it has run
        node._parents, node._backward = (), None


def zero_grads(params) -> None:
    for p in params:
        p.grad = None
