"""Localized MIMO graph convolution layers with pluggable edge-coefficient schemes.

A layer holds K weight matrices and a scheme that turns node features into
K coefficients per edge, plus a fixed diagonal weight per head (1 for ACM's
Laplacian channel); the forward pass is sum_k A~^(k) X W^(k). Every
leaky ReLU of the schemes has slope LEAKY_RELU_SLOPE.
The layer is one autodiff expression, edge_layer: z = x W, the (E, K) edge
coefficients of edge_coefficients (the forward pass's one branch on
Variant), and autodiff.edge_messages. CoefficientScheme checks each
variant's K and vector count, and vector_length and stacked_vectors own the
gating vectors' length and layout.
gclab.train's EdgeModel runs it on parameters and lmgc_forward on constants;
GIN-0's gin_layer is run the same two ways. The dense (K, n, n) matrix form
(compute_coefficients, ComputationalGraphSet, pairwise_transform) is the
oracle the tests check the edge path against.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import autodiff as ad
from ._record import _Frozen
from .graph import Graph, inv_sqrt_degrees

LEAKY_RELU_SLOPE = 0.2


class Variant(Enum):
    GCN_NORM = "gcn_norm"
    GATV2_SOFTMAX = "gatv2_softmax"
    FAGCN_TANH = "fagcn_tanh"
    ACM_FIXED = "acm_fixed"
    """The linear A~/L filterbank A~ X W0 + L X W1 (K=2); train.AcmModel is the nonlinear ACM."""
    LMGC_EQ14 = "lmgc_eq14"
    RANDOM_IID = "random_iid"


class CoefficientScheme(_Frozen):
    """Edge-coefficient rule plus its (fixed or learnable) parameters.

    vectors holds the per-head gating vectors where the variant needs them:
    one length-c vector per head for GATV2_SOFTMAX, a single length-2d
    vector for FAGCN_TANH, one length-2*K*c vector per head for LMGC_EQ14.
    """

    def __init__(self, variant: Variant, k: int, vectors: tuple = (), seed: int = 0):
        if k < 1:
            raise ValueError("need at least one computational graph")
        if variant is Variant.GCN_NORM and k != 1:
            raise ValueError("degree normalization defines a single graph")
        if variant is Variant.FAGCN_TANH and k != 1:
            raise ValueError("tanh gating defines a single graph")
        if variant is Variant.ACM_FIXED and k != 2:
            raise ValueError("fixed-operator scheme has K=2: A~ and L")
        count = {Variant.GATV2_SOFTMAX: k, Variant.LMGC_EQ14: k, Variant.FAGCN_TANH: 1}
        if len(vectors) != count.get(variant, 0):
            raise ValueError(f"{variant.value} takes {count.get(variant, 0)} gating "
                             f"vector(s), one per head; got {len(vectors)}")
        self._set(variant=variant, k=k, vectors=vectors, seed=seed)


class ComputationalGraphSet(_Frozen):
    """K edge-weight matrices, shape (K, n, n), over a shared underlying graph."""

    def __init__(self, matrices: np.ndarray, graph: Graph, allow_diagonal: bool = False):
        if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
            raise ValueError("coefficient matrices must be square")
        if matrices.shape[1] != graph.n:
            raise ValueError("coefficient matrices do not match the graph size")
        if not np.all(np.isfinite(matrices)):
            raise ValueError("coefficients must be finite")
        mask = graph.adjacency > 0
        if allow_diagonal:
            mask |= np.eye(graph.n, dtype=bool)
        if np.any(matrices[:, ~mask] != 0.0):
            raise ValueError("coefficients present outside the edge support")
        self._set(matrices=matrices, graph=graph, allow_diagonal=allow_diagonal)


class LmgcLayer(_Frozen):
    """K head matrices (each d x c) combined with a coefficient scheme."""

    def __init__(self, weights: np.ndarray, scheme: CoefficientScheme):
        if weights.ndim != 3:
            raise ValueError("weights must have shape (K, d, c)")
        if weights.shape[0] != scheme.k:
            raise ValueError("weight count must equal the scheme's K")
        length = vector_length(scheme.variant, *weights.shape)
        shapes = [np.shape(v) for v in scheme.vectors]
        if any(shape != (length,) for shape in shapes):
            raise ValueError(f"{scheme.variant.value} at (K, d, c) = {weights.shape} takes "
                             f"gating vectors of length {length}; got shapes {shapes}")
        self._set(weights=weights, scheme=scheme)

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


def eq14_coefficients(z, v, dst, src):
    """Eq. 14 gate: per head k, tanh(v_k . leaky([z_i, z_j])) on the edges dst[e] <- src[e].

    z is the (n, H*c) head projections x W; v is (2*H*c, H), head k's gating
    vector in column k. leaky acts on each half, so it runs on the n node
    rows before the gate. Returns the (E, H) coefficients.
    """
    return ad.tanh_gate(ad.leaky_relu(z, LEAKY_RELU_SLOPE), v, dst, src)


def _check_features(x, g: Graph):
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != g.n:
        raise ValueError(f"features must be ({g.n}, d)")
    return x


def vector_length(variant: Variant, k: int, d: int, c: int) -> int:
    """Length of one head's gating vector: c for GATv2, 2d for FAGCN, 2*K*c for eq. 14, else 0."""
    lengths = {Variant.GATV2_SOFTMAX: c, Variant.FAGCN_TANH: 2 * d, Variant.LMGC_EQ14: 2 * k * c}
    return lengths.get(variant, 0)


def stacked_vectors(variant: Variant, vectors) -> np.ndarray:
    """The per-head gating vectors as the fused blocks take them: (H, c, 1) for
    GATv2 (head k's in [k, :, 0]), (2m, H) for the tanh gates of FAGCN (H = 1)
    and eq. 14 (head k's in column k), and an empty array for the other schemes."""
    if variant is Variant.GATV2_SOFTMAX:
        return np.stack(vectors)[:, :, None]
    if variant in (Variant.FAGCN_TANH, Variant.LMGC_EQ14):
        return np.stack(vectors, axis=1)
    return np.zeros(0)


def edge_coefficients(variant: Variant, x, z, v, edges: EdgeIndex, k=1, seed=0):
    """The scheme's coefficients: alpha (E, K) on the edges dst[e] <- src[e], a Var, and diag (K,).

    x is the (n, d) features, z = x W the (n, K*c) head projections (head k in
    columns k*c:(k+1)*c) and v the gating vectors in stacked_vectors' layout,
    all Vars. A gated scheme is one fused block (FAGCN's is the tanh gate
    times 1/sqrt(deg_i deg_j)); the others are a constant. diag[k] is head k's
    weight on a node's own features: 1 for ACM's Laplacian, else 0.
    """
    dst, src, diag = edges.dst, edges.src, np.zeros(k)
    if variant is Variant.GATV2_SOFTMAX:
        return ad.gatv2_attention(z, v, dst, src, edges.offsets, edges.reverse, LEAKY_RELU_SLOPE), diag
    if variant is Variant.FAGCN_TANH:
        return ad.tanh_gate(x, v, dst, src, edges.inv_sqrt_deg_pair), diag
    if variant is Variant.LMGC_EQ14:
        return eq14_coefficients(z, v, dst, src), diag
    if variant is Variant.GCN_NORM:
        alpha = edges.inv_sqrt_deg_pair
    elif variant is Variant.ACM_FIXED:
        # normalized adjacency and Laplacian I - A~
        alpha = edges.inv_sqrt_deg_pair * np.array([1.0, -1.0])
        diag = np.array([0.0, 1.0])
    elif variant is Variant.RANDOM_IID:
        alpha = np.random.default_rng(seed).standard_normal((k, len(dst))).T
    else:  # pragma: no cover
        raise ValueError(f"unknown variant {variant}")
    return ad.Var(alpha, requires_grad=False), diag


def edge_layer(variant: Variant, x, w, v, edges: EdgeIndex, k=1, seed=0):
    """One localized MIMO layer sum_k A~^(k) x W^(k) over the edge arrays, on Vars.

    w is (d, K*c), head k's weights in columns k*c:(k+1)*c. Returns the (n, c)
    edge messages, z = x w and the scheme's diag (K,), whose term diag[k] z_k
    (ACM's) lmgc_forward adds.
    """
    z = ad.matmul(x, w)
    alpha, diag = edge_coefficients(variant, x, z, v, edges, k, seed)
    return ad.edge_messages(alpha, z, edges.dst, edges.src), z, diag


def _constants(layer: LmgcLayer, x: np.ndarray, g: Graph):
    """A layer's x, stacked W (d, K*c) and stacked gating vectors as constant Vars."""
    x = _check_features(x, g)
    if x.shape[1] != layer.d:
        raise ValueError(f"features have {x.shape[1]} channels, layer expects {layer.d}")
    s = layer.scheme
    arrays = (x, np.concatenate(layer.weights, axis=1), stacked_vectors(s.variant, s.vectors))
    return [ad.Var(a, requires_grad=False) for a in arrays]


def compute_coefficients(
    scheme: CoefficientScheme, x: np.ndarray, g: Graph, weights: np.ndarray
) -> ComputationalGraphSet:
    """The scheme's coefficient matrices: edge_coefficients scattered into (K, n, n)."""
    layer = LmgcLayer(np.asarray(weights, dtype=float), scheme)
    x, w, v = _constants(layer, x, g)
    edges = EdgeIndex.of(g)
    alpha, diag = edge_coefficients(scheme.variant, x, ad.matmul(x, w), v, edges, scheme.k, scheme.seed)
    mats = np.zeros((scheme.k, g.n, g.n))
    mats[:, edges.dst, edges.src] = alpha.value.T
    mats[:, np.arange(g.n), np.arange(g.n)] = diag[:, None]
    return ComputationalGraphSet(mats, g, allow_diagonal=bool(diag.any()))


def lmgc_forward(layer: LmgcLayer, x: np.ndarray, g: Graph) -> np.ndarray:
    """edge_layer on the layer's constants plus the diag term: sum_k A~^(k) X W^(k)."""
    s = layer.scheme
    x, w, v = _constants(layer, x, g)
    out, z, diag = edge_layer(s.variant, x, w, v, EdgeIndex.of(g), s.k, s.seed)
    return out.value + np.einsum("k,nkc->nc", diag, z.value.reshape(g.n, layer.k, layer.c))


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


def gin_aggregation(g: Graph) -> np.ndarray:
    """GIN-0's sum aggregator I + A (eps = 0) as a dense operator."""
    return np.eye(g.n) + g.adjacency


def gin_layer(agg, x, w1, b1, w2, b2):
    """GIN-0: relu((agg x) W1 + b1) W2 + b2, agg from gin_aggregation."""
    h = ad.matmul(agg, x)
    h = ad.relu(ad.add(ad.matmul(h, w1), b1))
    return ad.add(ad.matmul(h, w2), b2)


def gin_forward(x: np.ndarray, g: Graph, mlp) -> np.ndarray:
    """gin_layer on constants; mlp is (W1, b1, W2, b2)."""
    x = _check_features(x, g)
    if x.shape[1] != np.shape(mlp[0])[0]:
        raise ValueError("MLP input width does not match the features")
    arrays = (gin_aggregation(g), x, *mlp)
    return gin_layer(*(ad.Var(a, requires_grad=False) for a in arrays)).value
