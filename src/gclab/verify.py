"""Randomized checks of the almost-everywhere multiset properties.

Multiset instances are drawn from a rational lattice (integer vectors in
[-5, 5]^d scaled by 1/3) so that distinctness and integer-scaling checks
are exact. Edge coefficients are realized as a deterministic pseudo-random
function of the endpoint features, which models one fixed "almost every"
draw: identical instances always receive identical coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolution import sca_repeated_gcn
from .graph import Graph, generate_erdos_renyi, laplacian
from .lmgc import LEAKY_RELU_SLOPE, CoefficientScheme, LmgcLayer, Variant, lmgc_forward
from .seeding import derive_seed, splitmix64
from .spectral import eigendecompose_symmetric

LATTICE_RANGE = 5
LATTICE_SCALE = 1.0 / 3.0
COLLISION_RTOL = 1e-9
COEFFICIENT_SOURCES = ("random_iid", "fagcn_tanh", "lmgc_eq14")
_FEATURE_SEPARATOR = 0x5EA0_5EA0_5EA0_5EA0  # between center and element coordinates
_UNIT = 2.0**-53


@dataclass(frozen=True)
class MultisetInstance:
    """A center feature and a neighbor feature multiset, both on the lattice."""

    center: tuple
    elements: tuple  # sorted tuple of integer tuples, repetitions allowed

    def center_features(self) -> np.ndarray:
        return np.array(self.center, dtype=float) * LATTICE_SCALE

    def element_features(self) -> np.ndarray:
        return np.array(self.elements, dtype=float) * LATTICE_SCALE


@dataclass
class TrialReport:
    kind: str
    k: int
    d: int
    c: int
    trials: int
    violations: int
    min_separation: float

    def ok(self) -> bool:
        return self.violations == 0


def sample_instance(rng, d: int, max_size: int = 5) -> MultisetInstance:
    center = tuple(int(v) for v in rng.integers(-LATTICE_RANGE, LATTICE_RANGE + 1, d))
    size = int(rng.integers(1, max_size + 1))
    elems = [
        tuple(int(v) for v in rng.integers(-LATTICE_RANGE, LATTICE_RANGE + 1, d))
        for _ in range(size)
    ]
    return MultisetInstance(center, tuple(sorted(elems)))


def _coefficient(seed: int, k: int, center: tuple, element: tuple) -> float:
    """One draw of the fixed random coefficient function alpha_k(x_i, x_j).

    The key mixes every coordinate through splitmix64, and two further
    splitmix64 outputs become one standard normal by Box-Muller.
    """
    key = derive_seed(seed, k, *center, _FEATURE_SEPARATOR, *element)
    a = splitmix64(key)
    b = splitmix64(a)
    u1 = ((a >> 11) + 1) * _UNIT  # (0, 1], keeps the log finite
    u2 = (b >> 11) * _UNIT
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


class CoefficientSource:
    """Maps (head, center, element) to a coefficient, deterministically per seed.

    random_iid draws an independent Gaussian per (head, feature pair);
    the tanh sources evaluate a gating function with Gaussian parameters
    drawn once per source, mirroring the feature-dependent schemes.
    """

    def __init__(self, kind: str, k: int, d: int, c: int, seed: int):
        if kind not in COEFFICIENT_SOURCES:
            raise ValueError(f"unknown coefficient source {kind!r}")
        self.kind = kind
        self.k = k
        self.seed = seed
        rng = np.random.default_rng(derive_seed(seed, 0xC0EF))
        if kind == "fagcn_tanh":
            self.gate = rng.standard_normal((k, 2 * d))
        elif kind == "lmgc_eq14":
            self.w = rng.standard_normal((k, d, c))
            self.gate = rng.standard_normal((k, 2 * k * c))
            self._eq14_pair = None

    def alpha(self, head: int, center: tuple, element: tuple) -> float:
        if self.kind == "random_iid":
            return _coefficient(self.seed, head, center, element)
        if self.kind == "fagcn_tanh":
            xi = np.array(center, dtype=float) * LATTICE_SCALE
            xj = np.array(element, dtype=float) * LATTICE_SCALE
            return float(np.tanh(self.gate[head] @ np.concatenate([xi, xj])))
        return float(np.tanh(self.gate[head] @ self._eq14_features(center, element)))

    def _eq14_features(self, center: tuple, element: tuple) -> np.ndarray:
        """leaky_relu([z_i, z_j]) with z the K head projections, shared by all heads.

        The last pair is kept, so a caller that asks for every head of one
        pair in a row projects each feature once.
        """
        if self._eq14_pair != (center, element):
            xi = np.array(center, dtype=float) * LATTICE_SCALE
            xj = np.array(element, dtype=float) * LATTICE_SCALE
            zi = np.concatenate([xi @ self.w[m] for m in range(self.k)])
            zj = np.concatenate([xj @ self.w[m] for m in range(self.k)])
            feat = np.concatenate([zi, zj])
            self._eq14_pair = (center, element)
            self._eq14_feat = np.where(feat >= 0, feat, LEAKY_RELU_SLOPE * feat)
        return self._eq14_feat


def aggregate(instance: MultisetInstance, source: CoefficientSource, weights: np.ndarray) -> np.ndarray:
    """f(x_p, X_p) = sum_k (sum_j alpha_k x_j) W^(k), an output row in R^c.

    Heads run innermost, so every head's coefficient for one element is
    asked for in a row; each head still sums its elements in order.
    """
    heads = range(weights.shape[0])
    s = [np.zeros(weights.shape[1]) for _ in heads]
    for element in instance.elements:
        xj = np.array(element, dtype=float) * LATTICE_SCALE
        for k in heads:
            s[k] += source.alpha(k, instance.center, element) * xj
    out = np.zeros(weights.shape[2])
    for k in heads:
        out += s[k] @ weights[k]
    return out


def injectivity_trial(
    num_pairs: int, k: int, d: int, c: int, seed: int, source: str = "random_iid"
) -> TrialReport:
    """Sample distinct instance pairs and count aggregated-output collisions."""
    if k < 1:
        raise ValueError("need at least one computational graph")
    rng = np.random.default_rng(derive_seed(seed, 1))
    weights = np.random.default_rng(derive_seed(seed, 2)).standard_normal((k, d, c))
    coeffs = CoefficientSource(source, k, d, c, seed)
    violations = 0
    min_sep = np.inf
    for _ in range(num_pairs):
        a = sample_instance(rng, d)
        b = sample_instance(rng, d)
        while b == a:
            b = sample_instance(rng, d)
        fa = aggregate(a, coeffs, weights)
        fb = aggregate(b, coeffs, weights)
        scale_ab = max(np.linalg.norm(fa), np.linalg.norm(fb), 1e-300)
        sep = np.linalg.norm(fa - fb) / scale_ab
        min_sep = min(min_sep, sep)
        if sep <= COLLISION_RTOL:
            violations += 1
    return TrialReport("injectivity", k, d, c, num_pairs, violations, min_sep)


def _as_scaled(ms1: tuple, ms2: tuple) -> bool:
    """True when ms1 == m * ms2 elementwise (as sorted multisets) for integer m >= 1."""
    if len(ms1) != len(ms2):
        return False
    flat1 = np.array(ms1, dtype=np.int64)
    flat2 = np.array(ms2, dtype=np.int64)
    if np.all(flat1 == 0) and np.all(flat2 == 0):
        return True
    nz = flat2 != 0
    if not np.any(nz):
        return np.all(flat1 == 0)
    ratios = flat1[nz] // flat2[nz]
    m = ratios.flat[0]
    if m < 1:
        return False
    return np.array_equal(flat1, m * flat2)


def is_integer_scaling(ms1: tuple, ms2: tuple) -> bool:
    return _as_scaled(ms1, ms2) or _as_scaled(ms2, ms1)


def _is_zero(ms: tuple) -> bool:
    """True for a multiset of zero vectors, whose output 0 = 0 * f(b) is parallel to any."""
    return not any(any(e) for e in ms)


def independence_trial(
    num_pairs: int, k: int, d: int, c: int, seed: int, source: str = "random_iid"
) -> TrialReport:
    """Check that output pairs are not parallel outside the scaling family.

    The family includes 0 * b: a multiset of zero vectors aggregates to the
    zero output, so it is redrawn on either side of a pair.
    """
    if k <= 1:
        raise ValueError("linear independence requires K > 1")
    rng = np.random.default_rng(derive_seed(seed, 1))
    weights = np.random.default_rng(derive_seed(seed, 2)).standard_normal((k, d, c))
    coeffs = CoefficientSource(source, k, d, c, seed)
    violations = 0
    min_ratio = np.inf
    for _ in range(num_pairs):
        a = sample_instance(rng, d)
        while _is_zero(a.elements):
            a = sample_instance(rng, d)
        b = sample_instance(rng, d)
        while b == a or _is_zero(b.elements) or is_integer_scaling(a.elements, b.elements):
            b = sample_instance(rng, d)
        fa = aggregate(a, coeffs, weights)
        fb = aggregate(b, coeffs, weights)
        smax, smin = np.linalg.svd(np.stack([fa, fb]), compute_uv=False)
        ratio = smin / max(smax, 1e-300)
        min_ratio = min(min_ratio, ratio)
        if ratio < COLLISION_RTOL:
            violations += 1
    return TrialReport("independence", k, d, c, num_pairs, violations, min_ratio)


def parallel_control(k: int, d: int, c: int, seed: int, factor: int = 2):
    """Excluded-case inversion: same coefficients, scaled multiset -> parallel outputs."""
    rng = np.random.default_rng(derive_seed(seed, 1))
    weights = np.random.default_rng(derive_seed(seed, 2)).standard_normal((k, d, c))
    base = sample_instance(rng, d)
    # the scaled multiset keeps the base instance's coefficient draws
    fa = aggregate(base, CoefficientSource("random_iid", k, d, c, seed), weights)
    return fa, factor * fa


def multiset_counterexample_outputs(variant: Variant, seed: int):
    """Outputs of two nodes whose neighbor multisets are {{x1}} and {{x1, x1}}.

    The graph realizes the multisets with distinct neighbor nodes carrying
    the same feature; softmax-normalized attention cannot tell the two
    apart, while tanh-gated schemes can.
    """
    g = Graph.from_edges(5, [(0, 1), (2, 3), (2, 4)])
    rng = np.random.default_rng(derive_seed(seed, 7))
    d, c, k = 3, 3, 2 if variant in (Variant.GATV2_SOFTMAX, Variant.LMGC_EQ14) else 1
    center = rng.integers(-LATTICE_RANGE, LATTICE_RANGE + 1, d).astype(float)
    shared = rng.integers(-LATTICE_RANGE, LATTICE_RANGE + 1, d).astype(float)
    while not np.any(shared):
        shared = rng.integers(-LATTICE_RANGE, LATTICE_RANGE + 1, d).astype(float)
    x = np.zeros((5, d))
    x[0] = x[2] = center * LATTICE_SCALE
    x[1] = x[3] = x[4] = shared * LATTICE_SCALE
    weights = rng.standard_normal((k, d, c))
    if variant is Variant.GATV2_SOFTMAX:
        vectors = tuple(rng.standard_normal(c) for _ in range(k))
    elif variant is Variant.FAGCN_TANH:
        vectors = (rng.standard_normal(2 * d),)
    elif variant is Variant.LMGC_EQ14:
        vectors = tuple(rng.standard_normal(2 * k * c) for _ in range(k))
    else:
        raise ValueError(f"counterexample is not defined for {variant}")
    layer = LmgcLayer(weights, CoefficientScheme(variant, k, vectors))
    out = lmgc_forward(layer, x, g)
    return out[0], out[2]


def sca_dominance_report(depth_list, trials: int, seed: int):
    """Dominance ratios of repeated first-order filters, with the closed form.

    Each trial samples a connected graph, random per-layer scalars, and
    compares the measured top-to-second response ratio against r(1)^depth.
    Rows: (depth, trial, measured, closed_form, degenerate).
    """
    rows = []
    for t in range(trials):
        g = generate_erdos_renyi(12, 0.4, derive_seed(seed, t, 0))
        basis = eigendecompose_symmetric(laplacian(g))
        mu = np.sort(np.abs(basis.adjacency_eigenvalues()))[::-1]
        degenerate = np.isclose(mu[0], mu[1])
        r1 = np.inf if mu[1] == 0 else mu[0] / mu[1]
        rng = np.random.default_rng(derive_seed(seed, t, 1))
        for depth in depth_list:
            if depth < 1:
                raise ValueError("depth must be at least 1")
            w = rng.standard_normal(depth)
            while np.any(w == 0.0):  # pragma: no cover
                w = rng.standard_normal(depth)
            measured = sca_repeated_gcn(w, basis).dominance_ratio()
            closed = 1.0 if degenerate else r1**depth
            rows.append((depth, t, measured, closed, bool(degenerate)))
    return rows
