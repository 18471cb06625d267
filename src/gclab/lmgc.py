"""Localized MIMO graph convolution layers with pluggable edge-coefficient schemes.

A layer holds K weight matrices and a scheme that turns node features into
one n x n coefficient matrix per k; the forward pass is
sum_k A~^(k) X W^(k). Coefficients live only on edges of the underlying
graph (plus the diagonal for the fixed-operator scheme).

The learnable schemes (GATv2 softmax, FAGCN tanh gating, the eq. 14 gate)
are defined once, as autodiff expressions over edge arrays; the trainable
models in gclab.train call them on parameters, compute_coefficients on
constant Vars holding the stacked weights and gating vectors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import autodiff as ad
from .graph import Graph, inv_sqrt_degrees, laplacian, normalized_adjacency

LEAKY_RELU_SLOPE = 0.2


class Variant(Enum):
    GCN_NORM = "gcn_norm"
    GATV2_SOFTMAX = "gatv2_softmax"
    FAGCN_TANH = "fagcn_tanh"
    ACM_FIXED = "acm_fixed"
    LMGC_EQ14 = "lmgc_eq14"
    RANDOM_IID = "random_iid"


@dataclass(frozen=True)
class CoefficientScheme:
    """Edge-coefficient rule plus its (fixed or learnable) parameters.

    vectors holds the per-head gating vectors where the variant needs them:
    one length-c vector per head for GATV2_SOFTMAX, a single length-2d
    vector for FAGCN_TANH, one length-2*K*c vector per head for LMGC_EQ14.
    """

    variant: Variant
    k: int
    vectors: tuple = ()
    leaky_slope: float = LEAKY_RELU_SLOPE
    seed: int = 0
    include_identity: bool = False  # ACM third channel

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need at least one computational graph")
        if self.variant is Variant.GCN_NORM and self.k != 1:
            raise ValueError("degree normalization defines a single graph")
        if self.variant is Variant.FAGCN_TANH and self.k != 1:
            raise ValueError("tanh gating defines a single graph")
        if self.variant is Variant.ACM_FIXED:
            expected = 3 if self.include_identity else 2
            if self.k != expected:
                raise ValueError(f"fixed-operator scheme has K={expected} here")
        if self.variant in (Variant.GATV2_SOFTMAX, Variant.LMGC_EQ14):
            if len(self.vectors) != self.k:
                raise ValueError("one gating vector per head required")


@dataclass(frozen=True)
class ComputationalGraphSet:
    """K edge-weight matrices over a shared underlying graph."""

    matrices: np.ndarray  # (K, n, n)
    graph: Graph
    allow_diagonal: bool = False

    def __post_init__(self):
        if self.matrices.ndim != 3 or self.matrices.shape[1] != self.matrices.shape[2]:
            raise ValueError("coefficient matrices must be square")
        if self.matrices.shape[1] != self.graph.n:
            raise ValueError("coefficient matrices do not match the graph size")
        if not np.all(np.isfinite(self.matrices)):
            raise ValueError("coefficients must be finite")
        mask = self.graph.adjacency > 0
        if self.allow_diagonal:
            mask |= np.eye(self.graph.n, dtype=bool)
        if np.any(self.matrices[:, ~mask] != 0.0):
            raise ValueError("coefficients present outside the edge support")

    @property
    def k(self):
        return self.matrices.shape[0]


@dataclass(frozen=True)
class LmgcLayer:
    """K head matrices (each d x c) combined with a coefficient scheme."""

    weights: np.ndarray  # (K, d, c)
    scheme: CoefficientScheme

    def __post_init__(self):
        if self.weights.ndim != 3:
            raise ValueError("weights must have shape (K, d, c)")
        if self.weights.shape[0] != self.scheme.k:
            raise ValueError("weight count must equal the scheme's K")

    @property
    def k(self):
        return self.weights.shape[0]

    @property
    def d(self):
        return self.weights.shape[1]

    @property
    def c(self):
        return self.weights.shape[2]


class EdgeIndex:
    """Directed edge arrays of a graph in row (CSR) order, for edge-list schemes.

    Edge e runs from neighbor src[e] = j into row dst[e] = i, in the order of
    Graph.directed_edges, so offsets[i]:offsets[i + 1] is row i's block.
    inv_sqrt_deg_pair is the (E, 1) column 1/sqrt(deg_i * deg_j). A graph
    with a degree-zero node is rejected, as by normalized_adjacency.
    """

    def __init__(self, g: Graph):
        inv_sqrt = inv_sqrt_degrees(g)
        self.dst, self.src = g.directed_edges
        counts = np.bincount(self.dst, minlength=g.n)
        self.offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
        self.inv_sqrt_deg_pair = (inv_sqrt[self.dst] * inv_sqrt[self.src])[:, None]
        self.n = g.n


def gatv2_coefficients(hi, hj, v, offsets, slope=LEAKY_RELU_SLOPE):
    """GATv2 attention: per head k, softmax over row i's edges of v_k . leaky(h_i + h_j).

    hi and hj are the (E, H*c) projections x W gathered at the two ends of
    each edge, head k in columns k*c:(k+1)*c; v is (H, c, 1), head k's score
    vector in v[k, :, 0]. Returns the (E, H) coefficients.
    """
    edges, heads = hj.shape[0], v.shape[0]
    hidden = ad.leaky_relu(ad.add(hi, hj), slope)
    scores = ad.matmul(ad.reshape(hidden, (edges, heads, 1, -1)), v)
    return ad.segment_softmax(ad.reshape(scores, (edges, heads)), offsets)


def fagcn_coefficients(xi, xj, v, norm):
    """FAGCN gating: tanh(v . [x_i, x_j]) / sqrt(deg_i * deg_j).

    xi and xj are the (E, d) features gathered at the two ends of each edge,
    v is (2d,) and norm is EdgeIndex.inv_sqrt_deg_pair. Returns (E, 1).
    """
    gate = ad.tanh(ad.matmul(ad.concat([xi, xj], axis=1), v))
    return ad.mul(ad.reshape(gate, (-1, 1)), norm)


def eq14_coefficients(zi, zj, v, slope=LEAKY_RELU_SLOPE):
    """Eq. 14 gate: per head k, tanh(v_k . leaky([z_i, z_j])).

    zi and zj are the (E, H*c) head projections x W gathered at the two ends
    of each edge; v is (2*H*c, H), head k's gating vector in column k.
    Returns the (E, H) coefficients.
    """
    hidden = ad.leaky_relu(ad.concat([zi, zj], axis=1), slope)
    return ad.tanh(ad.matmul(hidden, v))


def _check_features(x, g: Graph):
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != g.n:
        raise ValueError(f"features must be ({g.n}, d)")
    return x


def compute_coefficients(
    scheme: CoefficientScheme, x: np.ndarray, g: Graph, weights: np.ndarray
) -> ComputationalGraphSet:
    """Evaluate the scheme's coefficient matrices for features x on graph g."""
    x = _check_features(x, g)
    e = EdgeIndex(g)
    mats = np.zeros((scheme.k, g.n, g.n))
    rows, cols = e.dst, e.src

    if scheme.variant is Variant.GCN_NORM:
        mats[0] = normalized_adjacency(g)

    elif scheme.variant is Variant.GATV2_SOFTMAX:
        z = x @ np.concatenate(weights, axis=1)  # (n, K*c)
        v = ad.Var(np.stack(scheme.vectors)[:, :, None])
        alpha = gatv2_coefficients(
            ad.Var(z[rows]), ad.Var(z[cols]), v, e.offsets, scheme.leaky_slope
        )
        mats[:, rows, cols] = alpha.value.T

    elif scheme.variant is Variant.FAGCN_TANH:
        v, norm = ad.Var(scheme.vectors[0]), ad.Var(e.inv_sqrt_deg_pair)
        alpha = fagcn_coefficients(ad.Var(x[rows]), ad.Var(x[cols]), v, norm)
        mats[:, rows, cols] = alpha.value.T

    elif scheme.variant is Variant.ACM_FIXED:
        mats[0] = normalized_adjacency(g)
        mats[1] = laplacian(g)
        if scheme.include_identity:
            mats[2] = np.eye(g.n)
        return ComputationalGraphSet(mats, g, allow_diagonal=True)

    elif scheme.variant is Variant.LMGC_EQ14:
        z = x @ np.concatenate(weights, axis=1)  # (n, K*c)
        v = ad.Var(np.stack(scheme.vectors, axis=1))
        alpha = eq14_coefficients(ad.Var(z[rows]), ad.Var(z[cols]), v, scheme.leaky_slope)
        mats[:, rows, cols] = alpha.value.T

    elif scheme.variant is Variant.RANDOM_IID:
        rng = np.random.default_rng(scheme.seed)
        for k in range(scheme.k):
            mats[k, rows, cols] = rng.standard_normal(len(rows))

    else:  # pragma: no cover
        raise ValueError(f"unknown variant {scheme.variant}")

    return ComputationalGraphSet(mats, g)


def lmgc_forward(layer: LmgcLayer, x: np.ndarray, g: Graph) -> np.ndarray:
    """Matrix-form forward pass sum_k A~^(k) X W^(k)."""
    x = _check_features(x, g)
    if x.shape[1] != layer.d:
        raise ValueError(f"features have {x.shape[1]} channels, layer expects {layer.d}")
    cgs = compute_coefficients(layer.scheme, x, g, layer.weights)
    return forward_from_coefficients(layer, cgs, x)


def forward_from_coefficients(
    layer: LmgcLayer, cgs: ComputationalGraphSet, x: np.ndarray
) -> np.ndarray:
    out = np.zeros((cgs.graph.n, layer.c))
    for k in range(layer.k):
        out += cgs.matrices[k] @ (x @ layer.weights[k])
    return out


def pairwise_transform(
    layer: LmgcLayer, cgs: ComputationalGraphSet, i: int, j: int
) -> np.ndarray:
    """Per-pair map W_(i,j) = sum_k alpha_(k)^(i,j) (W^(k))^T, shape c x d."""
    n = cgs.graph.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"pair ({i},{j}) out of range")
    on_edge = (min(i, j), max(i, j)) in cgs.graph.edges
    on_diag = cgs.allow_diagonal and i == j
    if not (on_edge or on_diag):
        raise ValueError(f"({i},{j}) is not an edge of the underlying graph")
    out = np.zeros((layer.c, layer.d))
    for k in range(layer.k):
        out += cgs.matrices[k, i, j] * layer.weights[k].T
    return out


def gin_forward(x: np.ndarray, g: Graph, mlp, eps: float = 0.0) -> np.ndarray:
    """Sum aggregation followed by a shared two-layer ReLU MLP.

    mlp is (W1, b1, W2, b2) applied row-wise: relu(h W1 + b1) W2 + b2
    with h = (1 + eps) x_i + sum of neighbor features.
    """
    x = _check_features(x, g)
    w1, b1, w2, b2 = (np.asarray(m, dtype=float) for m in mlp)
    if x.shape[1] != w1.shape[0]:
        raise ValueError("MLP input width does not match the features")
    h = (1.0 + eps) * x + g.adjacency @ x
    return np.maximum(h @ w1 + b1, 0.0) @ w2 + b2


def serialize_layer(layer: LmgcLayer) -> str:
    """Flat JSON of named tensors, row-major lists."""
    payload = {
        "variant": layer.scheme.variant.value,
        "k": layer.k,
        "leaky_slope": layer.scheme.leaky_slope,
        "include_identity": layer.scheme.include_identity,
        "seed": layer.scheme.seed,
        "weights": [w.tolist() for w in layer.weights],
        "vectors": [np.asarray(v, dtype=float).tolist() for v in layer.scheme.vectors],
    }
    return json.dumps(payload)


def deserialize_layer(text: str) -> LmgcLayer:
    payload = json.loads(text)
    scheme = CoefficientScheme(
        variant=Variant(payload["variant"]),
        k=payload["k"],
        vectors=tuple(np.asarray(v, dtype=float) for v in payload["vectors"]),
        leaky_slope=payload["leaky_slope"],
        seed=payload["seed"],
        include_identity=payload["include_identity"],
    )
    return LmgcLayer(np.asarray(payload["weights"], dtype=float), scheme)
