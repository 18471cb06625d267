"""Coefficient schemes, the localized layer, pairwise transforms, GIN."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from dense_oracles import forward_from_coefficients

import gclab
from gclab.graph import Graph, generate_erdos_renyi, laplacian, normalized_adjacency
from gclab.lmgc import (
    LEAKY_RELU_SLOPE,
    CoefficientScheme,
    ComputationalGraphSet,
    EdgeIndex,
    LmgcLayer,
    Variant,
    compute_coefficients,
    gin_aggregation,
    gin_forward,
    head_count,
    lmgc_forward,
    pairwise_transform,
)

GATED = (Variant.GATV2_SOFTMAX, Variant.FAGCN_TANH, Variant.LMGC_EQ14)


def small_setup(seed=0, n=6, d=3, c=2, k=2, variant=Variant.GATV2_SOFTMAX):
    g = generate_erdos_renyi(n, 0.5, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((n, d))
    weights = rng.standard_normal((k, d, c))
    if variant is Variant.GATV2_SOFTMAX:
        vectors = tuple(rng.standard_normal(c) for _ in range(k))
    elif variant is Variant.FAGCN_TANH:
        vectors = (rng.standard_normal(2 * d),)
    elif variant is Variant.LMGC_EQ14:
        vectors = tuple(rng.standard_normal(2 * k * c) for _ in range(k))
    else:
        vectors = ()
    scheme = CoefficientScheme(variant, k, vectors)
    return g, x, weights, scheme


class TestSchemeValidation:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="^k must be at least 1, got 0$"):
            CoefficientScheme(Variant.RANDOM_IID, 0)

    @pytest.mark.parametrize("k, shown", [(2.5, "2.5"), (True, "True"), (2.0, "2.0")])
    def test_non_integer_k_rejected(self, k, shown):
        with pytest.raises(ValueError, match=f"^k must be an integer, got {shown}$"):
            CoefficientScheme(Variant.RANDOM_IID, k)

    def test_numpy_integer_k_accepted(self):
        assert CoefficientScheme(Variant.RANDOM_IID, np.int64(2)).k == 2

    @pytest.mark.parametrize("seed, error", [(1.5, "must be an integer, got 1.5"), (True, "must be an integer, got True"),
                                             (-1, "must be at least 0, got -1")])
    def test_seed_must_be_a_natural_number(self, seed, error):
        with pytest.raises(ValueError, match=f"^seed {error}$"):
            CoefficientScheme(Variant.RANDOM_IID, 2, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert CoefficientScheme(Variant.RANDOM_IID, 2, seed=np.uint32(7)).seed == 7

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_scheme_takes_the_k_of_head_count(self, variant, k):
        want = head_count(variant, k)
        vectors = (np.zeros(1),) * k if variant in GATED else ()
        if k == want:
            assert CoefficientScheme(variant, k, vectors).k == k
            return
        message = f"{variant.value} defines K={want} computational graph(s); got k={k}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CoefficientScheme(variant, k, vectors)

    @pytest.mark.parametrize("variant, vectors", [("gatv2_softmax", (np.zeros(2),)), ("gcn_norm", ()), (None, ())])
    def test_variant_that_is_no_variant_rejected(self, variant, vectors):
        with pytest.raises(ValueError, match=f"^variant must be a Variant, got {re.escape(repr(variant))}$"):
            CoefficientScheme(variant, 1, vectors)

    def test_gcn_and_fagcn_are_single_graph(self):
        with pytest.raises(ValueError):
            CoefficientScheme(Variant.GCN_NORM, 2)
        with pytest.raises(ValueError):
            CoefficientScheme(Variant.FAGCN_TANH, 2, (np.zeros(6),))

    def test_acm_takes_k_two(self):
        for k in (1, 3):
            with pytest.raises(ValueError, match="K=2"):
                CoefficientScheme(Variant.ACM_FIXED, k)
        CoefficientScheme(Variant.ACM_FIXED, 2)

    def test_gating_vector_count_checked(self):
        with pytest.raises(ValueError, match="per head"):
            CoefficientScheme(Variant.GATV2_SOFTMAX, 2, (np.zeros(2),))

    def test_fagcn_needs_its_gating_vector(self):
        want = r"^vectors must hold 1 gating vector\(s\) for fagcn_tanh, one per head; got 0$"
        with pytest.raises(ValueError, match=want):
            CoefficientScheme(Variant.FAGCN_TANH, 1)

    @pytest.mark.parametrize(
        "variant, k", [(Variant.GCN_NORM, 1), (Variant.ACM_FIXED, 2), (Variant.RANDOM_IID, 2)]
    )
    def test_constant_schemes_take_no_vectors(self, variant, k):
        want = rf"^vectors must hold 0 gating vector\(s\) for {variant.value}, one per head; got 1$"
        with pytest.raises(ValueError, match=want):
            CoefficientScheme(variant, k, (np.zeros(4),))


class TestGatingVectorLengths:
    """A gating vector of the wrong length fails at the layer, naming the variant and length."""

    K, D, C = 2, 3, 2
    # (variant, heads, a wrong length, the right one)
    CASES = [
        (Variant.GATV2_SOFTMAX, 2, C + 1, C),
        (Variant.FAGCN_TANH, 1, D, 2 * D),
        (Variant.LMGC_EQ14, 2, K * C, 2 * K * C),  # K*c: each half of [z_i, z_j] only
    ]

    def setup_case(self, variant, k, length):
        g, x, weights, _ = small_setup(n=6, d=self.D, c=self.C, k=k, variant=variant)
        return g, x, weights, CoefficientScheme(variant, k, (np.ones(length),) * k)

    @pytest.mark.parametrize("variant, k, wrong, right", CASES)
    def test_layer_rejects_wrong_length(self, variant, k, wrong, right):
        _, _, weights, scheme = self.setup_case(variant, k, wrong)
        want = rf"^vectors must have length {right} for {variant.value} at \(K, d, c\) = .*; got shapes"
        with pytest.raises(ValueError, match=want):
            LmgcLayer(weights, scheme)

    @pytest.mark.parametrize("variant, k, wrong, right", CASES)
    def test_compute_coefficients_rejects_wrong_length(self, variant, k, wrong, right):
        g, x, weights, scheme = self.setup_case(variant, k, wrong)
        want = rf"^vectors must have length {right} for {variant.value} at \(K, d, c\) = .*; got shapes"
        with pytest.raises(ValueError, match=want):
            compute_coefficients(scheme, x, g, weights)


class TestGraphSetValidation:
    def test_off_support_coefficient_rejected(self):
        g = Graph.from_edges(3, [(0, 1)])
        mats = np.zeros((1, 3, 3))
        mats[0, 0, 2] = 1.0  # not an edge
        with pytest.raises(ValueError, match="outside the edge support"):
            ComputationalGraphSet(mats, g)

    def test_diagonal_needs_flag(self):
        g = Graph.from_edges(3, [(0, 1)])
        mats = np.zeros((1, 3, 3))
        mats[0, 1, 1] = 1.0
        with pytest.raises(ValueError, match="outside the edge support"):
            ComputationalGraphSet(mats, g)
        ComputationalGraphSet(mats, g, allow_diagonal=True)

    def test_non_finite_rejected(self):
        g = Graph.from_edges(2, [(0, 1)])
        mats = np.zeros((1, 2, 2))
        mats[0, 0, 1] = np.inf
        with pytest.raises(ValueError, match="^matrices must hold finite values only$"):
            ComputationalGraphSet(mats, g)

    def test_size_mismatch_rejected(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError, match=r"^matrices must have shape \(K, 2, 2\), got \(1, 3, 3\)$"):
            ComputationalGraphSet(np.zeros((1, 3, 3)), g)

    @pytest.mark.parametrize("shape", [(1, 2, 3), (2, 2)])
    def test_non_square_rejected(self, shape):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError, match=r"^matrices must have shape \(K, 2, 2\), got " + re.escape(str(shape)) + "$"):
            ComputationalGraphSet(np.zeros(shape), g)


class TestCoefficientSchemes:
    def test_gcn_norm_is_normalized_adjacency(self):
        g, x, weights, _ = small_setup(variant=Variant.GCN_NORM, k=1)
        scheme = CoefficientScheme(Variant.GCN_NORM, 1)
        cgs = compute_coefficients(scheme, x, g, weights[:1])
        np.testing.assert_allclose(cgs.matrices[0], normalized_adjacency(g), atol=0)

    def test_gcn_forward_is_matrix_product(self):
        g, x, weights, _ = small_setup(variant=Variant.GCN_NORM, k=1)
        layer = LmgcLayer(weights[:1], CoefficientScheme(Variant.GCN_NORM, 1))
        np.testing.assert_allclose(
            lmgc_forward(layer, x, g),
            normalized_adjacency(g) @ x @ weights[0],
            atol=1e-12,
        )

    def test_gatv2_rows_sum_to_one(self):
        g, x, weights, scheme = small_setup()
        cgs = compute_coefficients(scheme, x, g, weights)
        for k in range(scheme.k):
            sums = cgs.matrices[k].sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_gatv2_forward_matches_per_head_loop(self):
        # independent oracle: explicit per-head, per-node softmax loop
        g, x, weights, scheme = small_setup(seed=3)
        layer = LmgcLayer(weights, scheme)
        out = lmgc_forward(layer, x, g)
        expected = np.zeros_like(out)
        for k in range(scheme.k):
            v = scheme.vectors[k]
            xw = x @ weights[k]
            for i in range(g.n):
                nbrs = g.neighbors[i]
                z = xw[i] + xw[nbrs]
                scores = np.where(z >= 0, z, 0.2 * z) @ v
                alpha = np.exp(scores - scores.max())
                alpha /= alpha.sum()
                expected[i] += alpha @ xw[nbrs]
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_fagcn_coefficient_formula(self):
        g, x, weights, scheme = small_setup(variant=Variant.FAGCN_TANH, k=1)
        cgs = compute_coefficients(scheme, x, g, weights[:1])
        v = scheme.vectors[0]
        deg = g.degrees
        for i in range(g.n):
            for j in range(g.n):
                if (min(i, j), max(i, j)) in g.edges:
                    expected = np.tanh(v @ np.concatenate([x[i], x[j]])) / np.sqrt(
                        deg[i] * deg[j]
                    )
                    assert np.isclose(cgs.matrices[0, i, j], expected, atol=1e-12)
                else:
                    assert cgs.matrices[0, i, j] == 0.0

    def test_fagcn_magnitude_bounded_by_degree_norm(self):
        g, x, weights, scheme = small_setup(variant=Variant.FAGCN_TANH, k=1, seed=5)
        cgs = compute_coefficients(scheme, x, g, weights[:1])
        deg = g.degrees
        bound = np.outer(1 / np.sqrt(deg), 1 / np.sqrt(deg))
        assert np.all(np.abs(cgs.matrices[0]) <= bound + 1e-15)

    def test_acm_fixed_graphs(self):
        g, x, weights, _ = small_setup(k=2)
        scheme = CoefficientScheme(Variant.ACM_FIXED, 2)
        cgs = compute_coefficients(scheme, x, g, weights)
        np.testing.assert_allclose(cgs.matrices[0], normalized_adjacency(g), atol=0)
        np.testing.assert_allclose(cgs.matrices[1], laplacian(g), atol=0)
        assert cgs.allow_diagonal

    def test_acm_low_pass_only(self):
        g, x, weights, _ = small_setup(k=2, seed=6)
        weights = weights.copy()
        weights[1] = 0.0
        layer = LmgcLayer(weights, CoefficientScheme(Variant.ACM_FIXED, 2))
        np.testing.assert_allclose(
            lmgc_forward(layer, x, g),
            normalized_adjacency(g) @ x @ weights[0],
            atol=1e-12,
        )

    def test_eq14_coefficients_match_direct_formula(self):
        g, x, weights, scheme = small_setup(variant=Variant.LMGC_EQ14, seed=7)
        cgs = compute_coefficients(scheme, x, g, weights)
        z = np.concatenate([x @ weights[0], x @ weights[1]], axis=1)
        for k in range(2):
            v = scheme.vectors[k]
            for i in range(g.n):
                for j in g.neighbors[i]:
                    feat = np.concatenate([z[i], z[j]])
                    feat = np.where(feat >= 0, feat, 0.2 * feat)
                    assert np.isclose(
                        cgs.matrices[k, i, j], np.tanh(v @ feat), atol=1e-12
                    )

    def test_eq14_coefficients_in_open_unit_interval(self):
        g, x, weights, scheme = small_setup(variant=Variant.LMGC_EQ14, seed=8)
        cgs = compute_coefficients(scheme, x, g, weights)
        assert np.all(np.abs(cgs.matrices) < 1.0)

    def test_random_iid_deterministic_per_seed(self):
        g, x, weights, _ = small_setup(k=2)
        s1 = CoefficientScheme(Variant.RANDOM_IID, 2, seed=9)
        s2 = CoefficientScheme(Variant.RANDOM_IID, 2, seed=9)
        s3 = CoefficientScheme(Variant.RANDOM_IID, 2, seed=10)
        m1 = compute_coefficients(s1, x, g, weights).matrices
        m2 = compute_coefficients(s2, x, g, weights).matrices
        m3 = compute_coefficients(s3, x, g, weights).matrices
        np.testing.assert_array_equal(m1, m2)
        assert not np.array_equal(m1, m3)


def per_edge_coefficients(scheme, x, g, weights):
    """Reference: every coefficient evaluated edge by edge, in neighbor order."""
    n, slope = g.n, LEAKY_RELU_SLOPE
    nbrs = g.neighbors
    mats = np.zeros((scheme.k, n, n))

    def leaky(z):
        return np.where(z >= 0, z, slope * z)

    inv_sqrt = 1.0 / np.sqrt(np.maximum(g.degrees, 1.0))
    xw = np.concatenate([x @ weights[m] for m in range(scheme.k)], axis=1)
    rng = np.random.default_rng(scheme.seed)
    for k in range(scheme.k):
        for i in range(n):
            for j in nbrs[i]:
                if scheme.variant is Variant.GATV2_SOFTMAX:
                    hk = x @ weights[k]
                    scores = [scheme.vectors[k] @ leaky(hk[i] + hk[m]) for m in nbrs[i]]
                    top = max(scores)
                    denom = sum(np.exp(t - top) for t in scores)
                    own = scheme.vectors[k] @ leaky(hk[i] + hk[j])
                    mats[k, i, j] = np.exp(own - top) / denom
                elif scheme.variant is Variant.FAGCN_TANH:
                    gate = np.tanh(scheme.vectors[0] @ np.concatenate([x[i], x[j]]))
                    mats[k, i, j] = gate * inv_sqrt[i] * inv_sqrt[j]
                elif scheme.variant is Variant.LMGC_EQ14:
                    feat = leaky(np.concatenate([xw[i], xw[j]]))
                    mats[k, i, j] = np.tanh(scheme.vectors[k] @ feat)
                else:
                    mats[k, i, j] = rng.standard_normal()
    return mats


class TestEdgeArrayCoefficients:
    @pytest.mark.parametrize(
        "variant", [Variant.GATV2_SOFTMAX, Variant.FAGCN_TANH, Variant.LMGC_EQ14]
    )
    def test_matches_per_edge_loop(self, variant):
        k = 1 if variant is Variant.FAGCN_TANH else 3
        g, x, weights, scheme = small_setup(seed=40, n=40, d=4, c=3, k=k, variant=variant)
        got = compute_coefficients(scheme, x, g, weights).matrices
        np.testing.assert_allclose(
            got, per_edge_coefficients(scheme, x, g, weights), rtol=0, atol=1e-14
        )

    def test_random_iid_bit_identical_to_per_edge_draws(self):
        g, x, weights, _ = small_setup(seed=41, n=40, d=4, c=3, k=3, variant=Variant.RANDOM_IID)
        scheme = CoefficientScheme(Variant.RANDOM_IID, 3, seed=17)
        got = compute_coefficients(scheme, x, g, weights).matrices
        np.testing.assert_array_equal(got, per_edge_coefficients(scheme, x, g, weights))


class TestForwardMatchesDenseOracle:
    """lmgc_forward runs on edge arrays; the dense (K, n, n) matrix form is its oracle."""

    @pytest.mark.parametrize("n, p", [(16, 0.25), (40, 0.1), (128, 0.05)])
    # the ids keep the names these cases are tracked under (variant-False-n-p)
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: f"{v}-False")
    def test_matches_dense_forward(self, n, p, variant, monkeypatch):
        d, c = 4, 3
        k = {Variant.GCN_NORM: 1, Variant.FAGCN_TANH: 1, Variant.ACM_FIXED: 2}.get(variant, 3)
        g = generate_erdos_renyi(n, p, seed=n)
        rng = np.random.default_rng(n + 1)
        x = rng.standard_normal((n, d))
        vectors = {
            Variant.GATV2_SOFTMAX: tuple(rng.standard_normal(c) for _ in range(k)),
            Variant.FAGCN_TANH: (rng.standard_normal(2 * d),),
            Variant.LMGC_EQ14: tuple(rng.standard_normal(2 * k * c) for _ in range(k)),
        }.get(variant, ())
        scheme = CoefficientScheme(variant, k, vectors, seed=n)
        layer = LmgcLayer(rng.standard_normal((k, d, c)), scheme)
        ref = forward_from_coefficients(layer, compute_coefficients(scheme, x, g, layer.weights), x)

        def refuse(self, *args, **kwargs):
            raise AssertionError("lmgc_forward built a ComputationalGraphSet")

        monkeypatch.setattr(ComputationalGraphSet, "__init__", refuse)
        out = lmgc_forward(layer, x, g)
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestIsolatedNodePolicy:
    """Every scheme rejects a degree-zero node with graph's message."""

    @pytest.mark.parametrize("variant", list(Variant))
    def test_every_variant_rejects_isolated_node(self, variant):
        g = Graph.from_edges(3, [(0, 1)])
        k = {Variant.GCN_NORM: 1, Variant.FAGCN_TANH: 1, Variant.ACM_FIXED: 2}.get(variant, 2)
        vectors = {
            Variant.GATV2_SOFTMAX: (np.ones(2),) * k,
            Variant.FAGCN_TANH: (np.ones(4),),
            Variant.LMGC_EQ14: (np.ones(2 * k * 2),) * k,
        }.get(variant, ())
        scheme = CoefficientScheme(variant, k, vectors)
        x, weights = np.ones((3, 2)), np.ones((k, 2, 2))
        with pytest.raises(ValueError, match="isolated node 2"):
            compute_coefficients(scheme, x, g, weights)
        with pytest.raises(ValueError, match="isolated node 2"):
            lmgc_forward(LmgcLayer(weights, scheme), x, g)

    def test_edge_index_rejects_isolated_node(self):
        with pytest.raises(ValueError, match="isolated node 0"):
            EdgeIndex(Graph.from_edges(3, [(1, 2)]))


class TestLayerAndPairwise:
    def test_layer_weight_count_checked(self):
        scheme = CoefficientScheme(Variant.RANDOM_IID, 2)
        with pytest.raises(ValueError, match=r"^weights must have shape \(2, d, c\), got \(3, 2, 2\)$"):
            LmgcLayer(np.zeros((3, 2, 2)), scheme)

    def test_layer_rejects_2d_weights(self):
        scheme = CoefficientScheme(Variant.RANDOM_IID, 1)
        with pytest.raises(ValueError, match=r"^weights must have shape \(1, d, c\), got \(2, 2\)$"):
            LmgcLayer(np.zeros((2, 2)), scheme)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("variant", GATED)
    def test_layer_rejects_non_finite_weights_and_vectors(self, variant, bad):
        _, _, weights, scheme = small_setup(variant=variant, k=head_count(variant, 2))
        weights[0, 1, 0] = bad
        with pytest.raises(ValueError, match="^weights must hold finite values only$"):
            LmgcLayer(weights, scheme)
        weights[0, 1, 0] = 0.0
        vectors = (np.full_like(scheme.vectors[0], bad), *scheme.vectors[1:])
        with pytest.raises(ValueError, match="^vectors must hold finite values only$"):
            LmgcLayer(weights, CoefficientScheme(variant, scheme.k, vectors))

    def test_forward_equals_pairwise_accumulation(self):
        g, x, weights, scheme = small_setup(seed=10)
        layer = LmgcLayer(weights, scheme)
        cgs = compute_coefficients(scheme, x, g, weights)
        out = forward_from_coefficients(layer, cgs, x)
        expected = np.zeros_like(out)
        for i in range(g.n):
            for j in g.neighbors[i]:
                expected[i] += pairwise_transform(layer, cgs, i, j) @ x[j]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_acm_diagonal_pairwise_sums_diagonal_heads(self):
        # the normalized adjacency has a zero diagonal and the Laplacian a 1,
        # so a node's own pair carries the Laplacian head alone
        g, x, _, _ = small_setup(k=2)
        rng = np.random.default_rng(11)
        weights = rng.standard_normal((2, 3, 2))
        scheme = CoefficientScheme(Variant.ACM_FIXED, 2)
        layer = LmgcLayer(weights, scheme)
        cgs = compute_coefficients(scheme, x, g, weights)
        np.testing.assert_array_equal(pairwise_transform(layer, cgs, 2, 2), weights[1].T)

    def test_pairwise_rejects_non_edges(self):
        g, x, weights, scheme = small_setup(seed=12)
        cgs = compute_coefficients(scheme, x, g, weights)
        layer = LmgcLayer(weights, scheme)
        non_edges = [
            (i, j)
            for i in range(g.n)
            for j in range(g.n)
            if i != j and (min(i, j), max(i, j)) not in g.edges
        ]
        with pytest.raises(ValueError, match="not an edge"):
            pairwise_transform(layer, cgs, *non_edges[0])
        with pytest.raises(IndexError):
            pairwise_transform(layer, cgs, 0, g.n)

    def test_feature_shape_checked(self):
        g, x, weights, scheme = small_setup()
        layer = LmgcLayer(weights, scheme)
        n, d = x.shape
        with pytest.raises(ValueError, match=rf"^x must have shape \({n}, {d}\), got \({n}, 2\)$"):
            lmgc_forward(layer, x[:, :2], g)
        with pytest.raises(ValueError, match=rf"^x must have shape \({n}, {d}\), got \({n - 1}, {d}\)$"):
            lmgc_forward(layer, x[:-1], g)


class TestGin:
    def test_matches_hand_rolled_formula(self):
        g = generate_erdos_renyi(5, 0.6, seed=13)
        rng = np.random.default_rng(14)
        x = rng.standard_normal((5, 3))
        mlp = (
            rng.standard_normal((3, 4)),
            rng.standard_normal(4),
            rng.standard_normal((4, 2)),
            rng.standard_normal(2),
        )
        h = x + g.adjacency @ x
        expected = np.maximum(h @ mlp[0] + mlp[1], 0.0) @ mlp[2] + mlp[3]
        np.testing.assert_allclose(gin_forward(x, g, mlp), expected, atol=1e-12)

    def test_self_term_has_unit_weight(self):
        # GIN-0: each node sums its own features once and its neighbors', (I + A) x
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        np.testing.assert_array_equal(gin_aggregation(g), np.eye(3) + g.adjacency)
        x = np.array([[1.0], [10.0], [100.0]])
        mlp = (np.eye(1), np.zeros(1), np.eye(1), np.zeros(1))
        np.testing.assert_array_equal(gin_forward(x, g, mlp), [[11.0], [111.0], [110.0]])

    def test_width_mismatch_rejected(self):
        g = Graph.from_edges(2, [(0, 1)])
        mlp = (np.eye(3), np.zeros(3), np.eye(3), np.zeros(3))
        with pytest.raises(ValueError, match=r"^W1 must have shape \(2, h\), got \(3, 3\)$"):
            gin_forward(np.zeros((2, 2)), g, mlp)

    @pytest.mark.parametrize("name, at", [("W1", 0), ("b1", 1), ("W2", 2), ("b2", 3)])
    def test_non_finite_mlp_rejected(self, name, at):
        g = Graph.from_edges(2, [(0, 1)])
        mlp = [np.eye(2), np.zeros(2), np.eye(2), np.zeros(2)]
        mlp[at] = np.full_like(mlp[at], np.nan)
        with pytest.raises(ValueError, match=f"^{name} must hold finite values only$"):
            gin_forward(np.ones((2, 2)), g, mlp)

    def test_feature_rows_checked(self):
        g = Graph.from_edges(2, [(0, 1)])
        mlp = (np.eye(2), np.zeros(2), np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match=r"^x must have shape \(2, d\), got \(3, 2\)$"):
            gin_forward(np.zeros((3, 2)), g, mlp)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
@pytest.mark.parametrize("call", ["lmgc_forward", "compute_coefficients", "gin_forward"])
def test_non_finite_features_rejected(call, bad):
    g, x, weights, scheme = small_setup()
    x[1, 2] = bad
    mlp = (np.eye(3), np.zeros(3), np.eye(3), np.zeros(3))
    calls = {
        "lmgc_forward": lambda: lmgc_forward(LmgcLayer(weights, scheme), x, g),
        "compute_coefficients": lambda: compute_coefficients(scheme, x, g, weights),
        "gin_forward": lambda: gin_forward(x, g, mlp),
    }
    with pytest.raises(ValueError, match="^x must hold finite values only$"):
        calls[call]()


def _names_a_variant_member(node) -> bool:
    """Whether the expression names a member Variant.X (or a module's .Variant.X)."""
    for leaf in ast.walk(node):
        if isinstance(leaf, ast.Attribute):
            owner = leaf.value
            if getattr(owner, "id", None) == "Variant" or getattr(owner, "attr", None) == "Variant":
                return True
    return False


def test_only_lmgc_compares_a_value_with_a_variant_member():
    """Each scheme's rules, its K included (head_count), are written once, in gclab.lmgc."""
    found = []
    for path in sorted(Path(gclab.__file__).parent.glob("*.py")):
        if path.name == "lmgc.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) and any(map(_names_a_variant_member, [node.left, *node.comparators])):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
