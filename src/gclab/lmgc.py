"""Localized MIMO graph convolution layers with pluggable edge-coefficient schemes.

A layer holds K weight matrices and a scheme that turns node features into
K coefficients per edge, plus a fixed diagonal weight per head (1 for ACM's
Laplacian and identity channels); the forward pass is sum_k A~^(k) X W^(k).
The schemes and the GIN layer are defined once, as autodiff expressions (the
schemes one fused block each, over node rows and edge arrays): the trainable
models in gclab.train call them and autodiff.edge_messages on parameters,
lmgc_forward and gin_forward on constants. The dense
(K, n, n) matrix form (compute_coefficients, ComputationalGraphSet,
forward_from_coefficients, pairwise_transform) is kept as the oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import autodiff as ad
from .graph import Graph, inv_sqrt_degrees

LEAKY_RELU_SLOPE = 0.2


class Variant(Enum):
    GCN_NORM = "gcn_norm"
    GATV2_SOFTMAX = "gatv2_softmax"
    FAGCN_TANH = "fagcn_tanh"
    ACM_FIXED = "acm_fixed"
    """The linear A~/L filterbank A~ X W0 + L X W1 (+ X W2); train.AcmModel is the nonlinear ACM."""
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
    Graph.directed_edges, so offsets[i]:offsets[i + 1] is row i's block, and
    edge reverse[e] runs the other way, from i into j.
    inv_sqrt_deg_pair is the (E, 1) column 1/sqrt(deg_i * deg_j). A graph
    with a degree-zero node is rejected, as by normalized_adjacency. All
    arrays are read-only; EdgeIndex.of(g) builds them once per graph.
    """

    def __init__(self, g: Graph):
        inv_sqrt = inv_sqrt_degrees(g)
        self.dst, self.src = g.directed_edges
        counts = np.bincount(self.dst, minlength=g.n)
        self.offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
        self.inv_sqrt_deg_pair = (inv_sqrt[self.dst] * inv_sqrt[self.src])[:, None]
        self.reverse = np.lexsort((self.dst, self.src))  # edge reverse[e] is src[e] <- dst[e]
        for a in (self.offsets, self.inv_sqrt_deg_pair, self.reverse):
            a.setflags(write=False)
        self.n = g.n

    @classmethod
    def of(cls, g: Graph) -> "EdgeIndex":
        """g's EdgeIndex, cached with the graph like Graph.directed_edges."""
        if "edge_index" not in g._cache:
            g._cache["edge_index"] = cls(g)
        return g._cache["edge_index"]


def gatv2_coefficients(z, v, edges: EdgeIndex, slope=LEAKY_RELU_SLOPE):
    """GATv2 attention: per head k, softmax over row i's edges of v_k . leaky(z_i + z_j).

    z is the (n, H*c) projection x W, head k in columns k*c:(k+1)*c; v is
    (H, c, 1), head k's score vector in v[k, :, 0]. Returns the (E, H)
    coefficients, one autodiff.gatv2_attention node.
    """
    return ad.gatv2_attention(z, v, edges.dst, edges.src, edges.offsets, edges.reverse, slope)


def fagcn_coefficients(x, v, dst, src, norm=None):
    """FAGCN gating: tanh(v . [x_i, x_j]) / sqrt(deg_i * deg_j) on the edges dst[e] <- src[e].

    x is the (n, d) node features and v is (2d,), or (2d, K) for K gates;
    norm is EdgeIndex.inv_sqrt_deg_pair, or None for the bare gate. Returns
    (E, 1), or (E, K); one autodiff.tanh_gate node.
    """
    return ad.tanh_gate(x, v, dst, src, norm)


def eq14_coefficients(z, v, dst, src, slope=LEAKY_RELU_SLOPE):
    """Eq. 14 gate: per head k, tanh(v_k . leaky([z_i, z_j])) on the edges dst[e] <- src[e].

    z is the (n, H*c) head projections x W; v is (2*H*c, H), head k's gating
    vector in column k. leaky acts on each half, so it runs on the n node
    rows before the gate. Returns the (E, H) coefficients.
    """
    return ad.tanh_gate(ad.leaky_relu(z, slope), v, dst, src)


def _check_features(x, g: Graph):
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != g.n:
        raise ValueError(f"features must be ({g.n}, d)")
    return x


def edge_coefficients(scheme: CoefficientScheme, x: np.ndarray, z: np.ndarray, edges: EdgeIndex):
    """The scheme's coefficients: alpha (E, K) on the edges dst[e] <- src[e], and diag (K,).

    z is the (n, K*c) head projections x W, head k in columns k*c:(k+1)*c.
    diag[k] is head k's weight on a node's own features: 1 for ACM's Laplacian
    and identity channels, 0 elsewhere.
    """
    rows, cols, k = edges.dst, edges.src, scheme.k
    diag = np.zeros(k)
    if scheme.variant is Variant.GCN_NORM:
        alpha = edges.inv_sqrt_deg_pair
    elif scheme.variant is Variant.GATV2_SOFTMAX:
        v = ad.Var(np.stack(scheme.vectors)[:, :, None])
        alpha = gatv2_coefficients(ad.Var(z), v, edges, scheme.leaky_slope).value
    elif scheme.variant is Variant.FAGCN_TANH:
        v = ad.Var(scheme.vectors[0])
        alpha = fagcn_coefficients(ad.Var(x), v, rows, cols, edges.inv_sqrt_deg_pair).value
    elif scheme.variant is Variant.ACM_FIXED:
        # normalized adjacency, Laplacian I - A~ and identity
        alpha = edges.inv_sqrt_deg_pair * np.array([1.0, -1.0, 0.0][:k])
        diag = np.array([0.0, 1.0, 1.0][:k])
    elif scheme.variant is Variant.LMGC_EQ14:
        v = ad.Var(np.stack(scheme.vectors, axis=1))
        alpha = eq14_coefficients(ad.Var(z), v, rows, cols, scheme.leaky_slope).value
    elif scheme.variant is Variant.RANDOM_IID:
        alpha = np.random.default_rng(scheme.seed).standard_normal((k, len(rows))).T
    else:  # pragma: no cover
        raise ValueError(f"unknown variant {scheme.variant}")
    return alpha, diag


def compute_coefficients(
    scheme: CoefficientScheme, x: np.ndarray, g: Graph, weights: np.ndarray
) -> ComputationalGraphSet:
    """The scheme's coefficient matrices: edge_coefficients scattered into (K, n, n)."""
    x = _check_features(x, g)
    edges = EdgeIndex.of(g)
    alpha, diag = edge_coefficients(scheme, x, x @ np.concatenate(weights, axis=1), edges)
    mats = np.zeros((scheme.k, g.n, g.n))
    mats[:, edges.dst, edges.src] = alpha.T
    mats[:, np.arange(g.n), np.arange(g.n)] = diag[:, None]
    return ComputationalGraphSet(mats, g, allow_diagonal=bool(diag.any()))


def lmgc_forward(layer: LmgcLayer, x: np.ndarray, g: Graph) -> np.ndarray:
    """Forward pass sum_k A~^(k) X W^(k) over the edge arrays, as the trained models run it."""
    x = _check_features(x, g)
    if x.shape[1] != layer.d:
        raise ValueError(f"features have {x.shape[1]} channels, layer expects {layer.d}")
    edges = EdgeIndex.of(g)
    z = x @ np.concatenate(layer.weights, axis=1)  # (n, K*c)
    alpha, diag = edge_coefficients(layer.scheme, x, z, edges)
    out = ad.edge_messages(ad.Var(alpha), ad.Var(z), edges.dst, edges.src).value
    return out + np.einsum("k,nkc->nc", diag, z.reshape(g.n, layer.k, layer.c))


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


def gin_aggregation(g: Graph, eps: float = 0.0) -> np.ndarray:
    """GIN's sum aggregator (1 + eps) I + A as a dense operator."""
    return (1.0 + eps) * np.eye(g.n) + g.adjacency


def gin_layer(agg, x, w1, b1, w2, b2):
    """GIN: relu((agg x) W1 + b1) W2 + b2, agg from gin_aggregation."""
    h = ad.matmul(agg, x)
    h = ad.relu(ad.add(ad.matmul(h, w1), b1))
    return ad.add(ad.matmul(h, w2), b2)


def gin_forward(x: np.ndarray, g: Graph, mlp, eps: float = 0.0) -> np.ndarray:
    """gin_layer on constants; mlp is (W1, b1, W2, b2)."""
    x = _check_features(x, g)
    mlp = [ad.Var(m) for m in mlp]
    if x.shape[1] != mlp[0].shape[0]:
        raise ValueError("MLP input width does not match the features")
    return gin_layer(ad.Var(gin_aggregation(g, eps)), ad.Var(x), *mlp).value


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
