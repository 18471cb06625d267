"""Minimal reverse-mode differentiation over numpy arrays.

Only the primitives the single-layer message-passing models run are
provided. Three are generic: matmul, leaky_relu and the mse head. Five are
fused blocks, each one tape node with a hand-written backward: edge_messages
(the per-head message sum into each edge's destination), tanh_gate (the
split-form edge gate of fagcn and eq. 14), gatv2_attention (GATv2's scores
and softmax), gin_block (GIN-0's whole layer) and acm_block (ACM's whole
channel mix). backward runs the rules of the nodes that require grad, each
once, in descending creation stamp (a topological order of the tape) and
releases the tape. A leaf built with requires_grad=False is a constant: no
rule computes its adjoint, and backward does not walk into a subgraph built
only from constants.
"""

from __future__ import annotations

import math
from itertools import count
from operator import attrgetter

import numpy as np

_stamps = count()


class Var:
    """A tape node: value, accumulated adjoint, and a local backward rule.

    A node built from parents requires grad if any parent does; the keyword
    sets it for a leaf. _stamp, from one counter, is above every parent's.
    """

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward", "_stamp")

    def __init__(self, value, parents=(), requires_grad=True):
        # an op's value is already a float array; only a leaf's is converted
        self.value = value if parents else np.asarray(value, dtype=float)
        self.grad = None
        if parents:
            requires_grad = False
            for p in parents:
                requires_grad = requires_grad or p.requires_grad
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = None
        self._stamp = next(_stamps)

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
    return m.swapaxes(-1, -2)


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


def leaky_relu(a: Var, slope: float) -> Var:
    # 1 where a >= 0, slope elsewhere: (1 - slope) + slope rounds to exactly 1
    factor = (a.value >= 0) * (1.0 - slope) + slope
    out = Var(a.value * factor, (a,))
    out._backward = lambda g: _accumulate(a, g * factor)
    return out


def _softmax_segments(s, offsets, segment):
    """Softmax along axis 0 within each segment offsets[i]:offsets[i + 1]; row r is in segment[r]."""
    starts = offsets[:-1]
    e = np.exp(s - np.maximum.reduceat(s, starts, axis=0).take(segment, axis=0))
    return e / np.add.reduceat(e, starts, axis=0).take(segment, axis=0)


def _softmax_segments_grad(alpha, g, offsets, segment):
    """Adjoint of the scores given alpha = _softmax_segments(scores) and its adjoint g."""
    dot = np.add.reduceat(alpha * g, offsets[:-1], axis=0)
    return alpha * (g - dot.take(segment, axis=0))


def tanh_gate(h: Var, v: Var, dst: np.ndarray, src: np.ndarray, scale=1.0) -> Var:
    """Edge gate tanh(h[dst] @ v_top + h[src] @ v_bot), times the constant column scale.

    h is (n, m) node rows and v is (2m, H), head k's vector in column k, with
    v_top = v[:m] and v_bot = v[m:]. The value is tanh([h[dst], h[src]] @ v)
    on the edges dst[e] <- src[e], but both products run on the n node rows
    and the backward sums (E, H) adjoints, never (E, 2m) rows. Returns (E, H);
    scale is a constant (E, 1) column, or 1.0, by which the products are exact.
    """
    hv, vv = h.value, v.value
    n, m = hv.shape
    if vv.ndim != 2 or vv.shape[0] != 2 * m:
        raise ValueError(f"tanh_gate needs v of shape (2m, H), 2m = {2 * m}; got {vv.shape}")
    halves = vv.reshape(2, m, -1)  # v_top, v_bot
    node = hv @ halves  # (2, n, H)
    t = np.tanh(node[0].take(dst, axis=0) + node[1].take(src, axis=0))
    out = Var(t * scale, (h, v))

    def backward(g):
        gs = g * scale * (1.0 - t * t)
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
    r = zv.take(dst, axis=0)
    r += zv.take(src, axis=0)
    np.maximum(r, 0.0, out=r)  # relu(z_i + z_j), (E, H*c)
    pair = p.take(dst, axis=0) + p.take(src, axis=0)
    alpha = _softmax_segments(slope * pair + (1.0 - slope) * (r @ blocks), offsets, dst)
    out = Var(alpha, (z, v))

    def backward(g):
        gs = _softmax_segments_grad(alpha, g, offsets, dst)  # (E, H)
        both = gs + gs.take(reverse, axis=0)  # the adjoints of e and of its reverse, both summed into dst[e]
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


def gin_block(agg: Var, x: Var, w1: Var, b1: Var, w2: Var, b2: Var) -> Var:
    """GIN-0's layer relu((agg x) w1 + b1) w2 + b2, agg the (n, n) sum aggregator.

    The value and every adjoint run the numpy operations of the matmul, add
    and relu nodes the layer composes, in their order, so both are the
    composed ones bit for bit; relu multiplies by its 0/1 mask as leaky_relu
    at slope 0 does.
    """
    h = agg.value @ x.value
    s = h @ w1.value + b1.value
    active = s >= 0
    r = s * active
    out = Var(r @ w2.value + b2.value, (agg, x, w1, b1, w2, b2))

    def backward(g):
        if b2.requires_grad:
            _accumulate(b2, _unbroadcast(g, b2.value.shape))
        if w2.requires_grad:
            _accumulate(w2, _unbroadcast(_t(r) @ g, w2.value.shape))
        gs = (g @ _t(w2.value)) * active
        if b1.requires_grad:
            _accumulate(b1, _unbroadcast(gs, b1.value.shape))
        if w1.requires_grad:
            _accumulate(w1, _unbroadcast(_t(h) @ gs, w1.value.shape))
        if agg.requires_grad or x.requires_grad:
            gh = gs @ _t(w1.value)
            if agg.requires_grad:
                _accumulate(agg, _unbroadcast(gh @ _t(x.value), agg.value.shape))
            if x.requires_grad:
                _accumulate(x, _unbroadcast(_t(agg.value) @ gh, x.value.shape))

    out._backward = backward
    return out


def acm_block(x: Var, graphs: Var, w: Var, v: Var) -> Var:
    """ACM's channel mix: sum_k alpha_k * h_k with h_k = relu(graphs[k] x w[k]) and, per node,
    alpha = softmax over the channels k of h_k v[k].

    graphs is the (C, n, n) operator bank, w (C, d, c) and v (C, c, 1);
    returns (n, c). The softmax and both sums run over the channel axis. As
    in gin_block, the value and every adjoint are those of the composed
    matmul, relu, segment softmax, mul and row-sum nodes, bit for bit at
    ACM's C = 2 (A~ and L); a sum over more channels may round otherwise.
    """
    xw = x.value @ w.value
    ag = graphs.value @ xw
    active = ag >= 0
    h = ag * active  # (C, n, c)
    s = h @ v.value  # (C, n, 1)
    e = np.exp(s - s.max(axis=0))
    alpha = e / e.sum(axis=0)
    out = Var((alpha * h).sum(axis=0), (x, graphs, w, v))

    def backward(g):
        g = g[None]  # the channel sum's adjoint: g in every channel
        ga = _unbroadcast(g * h, alpha.shape)
        gs = alpha * (ga - (alpha * ga).sum(axis=0))
        if v.requires_grad:
            _accumulate(v, _unbroadcast(_t(h) @ gs, v.value.shape))
        gag = (g * alpha + gs @ _t(v.value)) * active
        if graphs.requires_grad:
            _accumulate(graphs, _unbroadcast(gag @ _t(xw), graphs.value.shape))
        gxw = _t(graphs.value) @ gag
        if x.requires_grad:
            _accumulate(x, _unbroadcast(gxw @ _t(w.value), x.value.shape))
        if w.requires_grad:
            _accumulate(w, _unbroadcast(_t(x.value) @ gxw, w.value.shape))

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

    Each rule runs once, after those of all its node's consumers (descending
    stamp order), and is then released with the arrays it saved, so the tape's
    memory is freed before the next forward. The walk skips constants.
    """
    if loss.value.shape != ():
        raise ValueError("backward requires a scalar loss")
    if not loss.requires_grad:
        return
    seen = {loss}  # Vars hash by identity
    stack = [loss]
    while stack:
        for p in stack.pop()._parents:
            if p.requires_grad and p not in seen:
                seen.add(p)
                stack.append(p)
    loss.grad = np.asarray(1.0)
    for node in sorted(seen, key=attrgetter("_stamp"), reverse=True):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        # a tape is walked once: drop the rule and its saved arrays as soon as it has run
        node._parents, node._backward = (), None


def zero_grads(params) -> None:
    for p in params:
        p.grad = None
